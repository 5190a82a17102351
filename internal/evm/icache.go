package evm

// Decoded-instruction caching. Interpreting an instruction costs two bus
// fetches plus a decode; steady-state enclave code is static, so the VM
// caches decoded instructions, one slot per code byte of each page it
// runs. Self-modifying code — the entire point of SgxElide — is handled by
// generation words: a bus that can observe writes to executable memory
// implements CodePages and hands the VM, on entering a page, a pointer to
// a word that increases whenever that page's bytes or permissions may have
// changed. Each slot records the word's value at decode time, and a cached
// instruction runs only while the word still holds that value, so a hit
// costs one slot access and one compare. An instruction whose bytes
// continue on the next page also records that page's word and is valid
// while both hold. A bus that cannot make that promise (e.g. the
// permissionless FlatMem) simply doesn't implement the interface, and a bus
// that hands out no word for a page (the SGX bus while a page trace is
// recording) gets every fetch of that page through Fetch: the VM
// interprets uncached — always correct, just slower.
//
// Per-page words matter for the restore path: the restorer's memcpy
// overwrites the whole text section while executing from it. Only the page
// currently being rewritten loses its decodes; the page hosting the copy
// loop itself thrashes briefly while the loop copies over its own bytes
// and is stable otherwise.

// CodePages is implemented by buses that can detect writes to executable
// memory at page granularity.
type CodePages interface {
	// CodePage returns the generation word of the page containing addr and
	// the page's index in the bus's own dense numbering. The word increases
	// whenever the page's executable bytes or permissions may have changed.
	// A nil word means the page's decodes must not be cached.
	CodePage(addr uint64) (gen *uint64, index uint64)
}

const icachePageSize = 4096

// slot is one decoded instruction as the run loop executes it (32 bytes).
type slot struct {
	op         Opcode
	rd, ra, rb byte
	w          byte
	size       uint8  // encoded length; 0 while the slot was never filled
	imm        uint64 // Inst.Imm, or Inst.U64 for MOVI
	gen        uint64 // the page's word when decoded
	gen2       uint64 // the next page's word, for an instruction that continues there
}

// icachePage caches the decodings of one page of code. Slots carry their
// own generations, so invalidation never requires clearing the array.
type icachePage struct {
	gen   *uint64 // this page's generation word
	next  *uint64 // the next page's word, once an instruction spanning into it was cached
	slots [icachePageSize]slot
}

// lookup returns the current decode at pc on page p, or nil on a miss or
// when p is nil (an uncached page).
func (p *icachePage) lookup(pc uint64) *slot {
	if p == nil {
		return nil
	}
	off := pc & (icachePageSize - 1)
	s := &p.slots[off]
	if s.size == 0 || s.gen != *p.gen || off+uint64(s.size) > icachePageSize && s.gen2 != *p.next {
		return nil
	}
	return s
}

// icache holds the cache pages, indexed by the bus's page index.
type icache struct {
	bus   CodePages // nil when the bus cannot support caching
	pages []*icachePage
}

// enter returns the cache page for the page containing pc, or nil when the
// bus hands out no generation word for it. This is the one bus call the VM
// makes per page it enters.
func (c *icache) enter(pc uint64) *icachePage {
	if c.bus == nil {
		return nil
	}
	gen, i := c.bus.CodePage(pc)
	if gen == nil {
		return nil
	}
	for uint64(len(c.pages)) <= i {
		c.pages = append(c.pages, nil)
	}
	if c.pages[i] == nil || c.pages[i].gen != gen {
		c.pages[i] = &icachePage{gen: gen}
	}
	return c.pages[i]
}

// store records s, the decode of the instruction at pc on page p, and
// returns the slot that now holds it. An instruction that continues on the
// next page is cached only if the bus hands out that page's word too;
// otherwise s itself is returned.
func (c *icache) store(p *icachePage, pc uint64, s *slot) *slot {
	off := pc & (icachePageSize - 1)
	if off+uint64(s.size) > icachePageSize {
		next, _ := c.bus.CodePage(pc + uint64(s.size) - 1)
		if next == nil {
			return s
		}
		p.next, s.gen2 = next, *next
	}
	s.gen = *p.gen
	p.slots[off] = *s
	return &p.slots[off]
}
