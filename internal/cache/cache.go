// Package cache provides the hardware cache models used by LATCH: a generic
// set-associative (or fully-associative) LRU cache with full statistics, and
// a TLB model extended with per-entry page taint bits (§4.2 of the paper).
//
// The same model instantiates all three structures in the H-LATCH caching
// stack: the 16-entry fully-associative Coarse Taint Cache, the small 4-way
// precise taint cache, and the 128-entry TLB (§6.3/§6.4).
package cache

import (
	"fmt"
	"math/bits"
)

// Line is one cache line. Data and Aux are payload words for the client's
// use: the CTC keeps the cached CTT word in Data and its clear bits in Aux.
type Line struct {
	valid bool
	tag   uint32
	lru   uint64
	Data  uint32
	Aux   uint32
}

// Valid reports whether the line holds a block.
func (l *Line) Valid() bool { return l.valid }

// Eviction describes a block displaced by a fill. The CTC uses evictions to
// trigger the clear-bit scan of §5.1.4.
type Eviction struct {
	Valid bool   // whether anything was displaced
	Addr  uint32 // base address of the displaced block
	Data  uint32
	Aux   uint32
}

// Stats counts cache events.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// MissRate returns Misses/Accesses, or 0 with no accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// HitRate returns Hits/Accesses, or 0 with no accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Config describes cache geometry.
type Config struct {
	Name     string
	Sets     int    // 1 for fully associative
	Ways     int    // entries per set
	LineSize uint32 // bytes per block; power of two
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %s: sets %d must be a positive power of two", c.Name, c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways %d must be positive", c.Name, c.Ways)
	}
	if c.LineSize == 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: line size %d must be a power of two", c.Name, c.LineSize)
	}
	return nil
}

// CapacityBytes returns total data capacity.
func (c Config) CapacityBytes() int { return c.Sets * c.Ways * int(c.LineSize) }

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint32
	sets      [][]Line
	clock     uint64
	stats     Stats
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := make([][]Line, cfg.Sets)
	for i := range sets {
		sets[i] = make([]Line, cfg.Ways)
	}
	return &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros32(cfg.LineSize)),
		setMask:   uint32(cfg.Sets - 1),
		sets:      sets,
	}, nil
}

// MustNew is New panicking on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

func (c *Cache) index(addr uint32) (set int, tag uint32) {
	block := addr >> c.lineShift
	return int(block & c.setMask), block >> bits.TrailingZeros32(uint32(c.cfg.Sets))
}

// BlockBase returns the base address of the block containing addr.
func (c *Cache) BlockBase(addr uint32) uint32 { return addr &^ (c.cfg.LineSize - 1) }

// Probe looks up addr without updating statistics, LRU state, or contents.
func (c *Cache) Probe(addr uint32) (*Line, bool) {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			return l, true
		}
	}
	return nil, false
}

// Access looks up addr, filling on a miss. It returns the (now resident)
// line, whether the access hit, and any eviction caused by the fill. The
// line's Data/Aux are preserved on hits and zeroed on fills, so the caller
// must install payload after a miss.
func (c *Cache) Access(addr uint32) (line *Line, hit bool, ev Eviction) {
	c.stats.Accesses++
	c.clock++
	set, tag := c.index(addr)
	ways := c.sets[set]
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			l.lru = c.clock
			c.stats.Hits++
			return l, true, Eviction{}
		}
	}
	c.stats.Misses++
	// Fill: prefer an invalid way, else the least recently used.
	victim := &ways[0]
	for i := range ways {
		l := &ways[i]
		if !l.valid {
			victim = l
			break
		}
		if l.lru < victim.lru {
			victim = l
		}
	}
	if victim.valid {
		c.stats.Evictions++
		ev = Eviction{
			Valid: true,
			Addr:  c.addrOf(set, victim.tag),
			Data:  victim.Data,
			Aux:   victim.Aux,
		}
	}
	victim.valid = true
	victim.tag = tag
	victim.lru = c.clock
	victim.Data = 0
	victim.Aux = 0
	return victim, false, ev
}

// AccessN is n back-to-back Access calls to addr (n >= 1): the first may
// fill, the remaining n-1 hit the now-resident line. Statistics and LRU
// state end exactly as after the n calls; the first access's outcome is
// returned.
func (c *Cache) AccessN(addr uint32, n int) (line *Line, hit bool, ev Eviction) {
	line, hit, ev = c.Access(addr)
	if n > 1 {
		k := uint64(n - 1)
		c.stats.Accesses += k
		c.stats.Hits += k
		c.clock += k
		line.lru = c.clock
	}
	return line, hit, ev
}

// addrOf reconstructs a block base address from set and tag.
func (c *Cache) addrOf(set int, tag uint32) uint32 {
	block := tag<<bits.TrailingZeros32(uint32(c.cfg.Sets)) | uint32(set)
	return block << c.lineShift
}

// Invalidate drops the block containing addr if resident, returning its
// former contents.
func (c *Cache) Invalidate(addr uint32) (Eviction, bool) {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			ev := Eviction{Valid: true, Addr: c.addrOf(set, tag), Data: l.Data, Aux: l.Aux}
			l.valid = false
			return ev, true
		}
	}
	return Eviction{}, false
}

// Flush invalidates every line, invoking fn (if non-nil) for each valid
// block in unspecified order. The CTC flush uses fn to run the clear-bit
// scan over all resident lines before a mode switch.
func (c *Cache) Flush(fn func(Eviction)) {
	for set := range c.sets {
		for i := range c.sets[set] {
			l := &c.sets[set][i]
			if !l.valid {
				continue
			}
			if fn != nil {
				fn(Eviction{Valid: true, Addr: c.addrOf(set, l.tag), Data: l.Data, Aux: l.Aux})
			}
			l.valid = false
		}
	}
}

// ForEach invokes fn for every valid line with its block base address,
// without perturbing statistics or LRU state. fn may modify the line's
// payload (the CTC's resident clear-bit scan does).
func (c *Cache) ForEach(fn func(addr uint32, line *Line)) {
	for set := range c.sets {
		for i := range c.sets[set] {
			l := &c.sets[set][i]
			if l.valid {
				fn(c.addrOf(set, l.tag), l)
			}
		}
	}
}

// ResidentBlocks returns the number of valid lines.
func (c *Cache) ResidentBlocks() int {
	n := 0
	for set := range c.sets {
		for i := range c.sets[set] {
			if c.sets[set][i].valid {
				n++
			}
		}
	}
	return n
}
