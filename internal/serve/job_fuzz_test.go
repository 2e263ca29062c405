package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzJobDecode drives arbitrary bodies through the decode-and-validate
// front of both job endpoints — decodeJob plus parseRun or parseProgram —
// on a server that admits tenant policies and restricts no backend, so
// every refusal is the body's fault. It must never panic, and must answer
// only 200 (the job would be queued), 400 or 413.
func FuzzJobDecode(f *testing.F) {
	for _, seed := range []string{
		// The bodies tools/serve-smoke sends.
		`{"source":"movi r1, 3\n sys 1"}`,
		`{"source":"li r1, 0x3000\n movi r2, 4\n sys 2\n li r3, 0x3000\n ldw r4, [r3]\n jr r4\n halt","input":"\u0000 \u0000\u0000"}`,
		`{"backend":"slatch","workload":"gcc","events":50000}`,
		// The serve-mixed shapes, and the caps.
		`{"backend":"cplatch","workload":"astar","events":200000,"shards":1}`,
		fmt.Sprintf(`{"backend":"hlatch","workload":"lbm","events":%d}`, MaxRunEvents+1),
		fmt.Sprintf(`{"source":"halt","max_steps":%d}`, MaxProgramSteps+1),
		`{"source":"halt","deadline":"2s","policy":{"taint_file":true,"check_control_flow":true,"sampling":{"sample_fraction":0.5,"sample_seed":3}}}`,
		`{"backend":"slatch","workload":"gcc","telemetry":"-1s"}`,
		`{"source":"bogus op"}`,
		`{"events":-1}`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s := &Server{cfg: Config{Policy: PolicyGate{AllowTenantPolicies: true}}}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ep := range []struct {
			path  string
			parse func(http.ResponseWriter, *http.Request) bool
		}{
			{"/v1/run", func(w http.ResponseWriter, r *http.Request) bool { return s.parseRun(w, r) != nil }},
			{"/v1/program", func(w http.ResponseWriter, r *http.Request) bool { return s.parseProgram(w, r) != nil }},
		} {
			rec := httptest.NewRecorder()
			ok := ep.parse(rec, httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(body)))
			switch {
			case ok && (rec.Code != http.StatusOK || rec.Body.Len() != 0):
				t.Fatalf("%s admitted the job but answered %d %q", ep.path, rec.Code, rec.Body)
			case !ok && rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge:
				t.Fatalf("%s refused the job with %d %q; want 400 or 413", ep.path, rec.Code, rec.Body)
			}
		}
	})
}
