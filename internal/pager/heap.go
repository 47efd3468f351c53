package pager

import (
	"context"
	"encoding/binary"
	"fmt"
)

// RID identifies a record in a Heap: the byte offset where its length
// prefix begins.
type RID uint64

// Heap is an append-only record file over a paged file. Records are
// length-prefixed and may span pages, so whole XML documents and shredded
// rows use the same storage primitive. Inserts are buffered one page at a
// time and flushed as pages fill, modeling bulk-load I/O; call Flush to
// persist a partial tail page.
//
// Get and Scan are safe to call from many goroutines once loading has
// finished (after Flush/Sync); Insert/Flush/Reset require external
// exclusion from readers — the engines provide it with their write lock.
type Heap struct {
	p   *Pager
	fid FileID

	end       uint64 // next insert offset
	flushed   uint64 // offsets below this are on disk
	tail      []byte // in-memory image of the tail page
	tailNo    uint32
	hasTail   bool
	tailDirty bool // tail differs from its on-disk image
	count     int
}

// NewHeap creates an empty heap in a fresh file.
func NewHeap(p *Pager, name string) *Heap {
	return &Heap{p: p, fid: p.Create(name)}
}

// Count returns the number of records inserted.
func (h *Heap) Count() int { return h.count }

// Bytes returns the total size of record data including prefixes.
func (h *Heap) Bytes() uint64 { return h.end }

// Pages returns the number of pages the heap's records occupy — the
// sequential-scan cost the query planner feeds its cost model.
func (h *Heap) Pages() int64 {
	if h.end == 0 {
		return 0
	}
	return int64((h.end + PageSize - 1) / PageSize)
}

// Insert appends a record and returns its RID.
func (h *Heap) Insert(rec []byte) (RID, error) {
	rid := RID(h.end)
	var pfx [4]byte
	binary.BigEndian.PutUint32(pfx[:], uint32(len(rec)))
	if err := h.write(pfx[:]); err != nil {
		return 0, err
	}
	if err := h.write(rec); err != nil {
		return 0, err
	}
	h.count++
	return rid, nil
}

// write appends raw bytes across page boundaries.
func (h *Heap) write(b []byte) error {
	for len(b) > 0 {
		off := int(h.end % PageSize)
		if !h.hasTail {
			no, err := h.p.Append(h.fid)
			if err != nil {
				return err
			}
			h.tailNo = no
			h.tail = make([]byte, PageSize)
			h.hasTail = true
		}
		n := copy(h.tail[off:], b)
		b = b[n:]
		h.end += uint64(n)
		h.tailDirty = true
		if h.end%PageSize == 0 {
			if err := h.flushTail(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (h *Heap) flushTail() error {
	if !h.hasTail {
		return nil
	}
	if err := h.p.Write(h.fid, h.tailNo, h.tail); err != nil {
		return err
	}
	h.flushed = (uint64(h.tailNo) + 1) * PageSize
	h.hasTail = false
	return nil
}

// Flush persists any buffered tail page.
func (h *Heap) Flush() error {
	if !h.hasTail {
		return nil
	}
	if err := h.p.Write(h.fid, h.tailNo, h.tail); err != nil {
		return err
	}
	h.flushed = h.end
	h.tailDirty = false
	// Keep the tail image so further inserts continue filling the page.
	return nil
}

// Sync flushes the tail page and forces every dirty page of the heap's
// file to disk (the per-file fsync of a multi-document load).
func (h *Heap) Sync() error {
	if err := h.Flush(); err != nil {
		return err
	}
	return h.p.Sync(h.fid)
}

// fetch returns page no of the live heap: the in-memory tail while it
// holds unflushed data, the buffer pool otherwise. Once flushed, the tail
// page is read through the pool like any other, so cold-run I/O is fully
// accounted.
func (h *Heap) fetch(no uint32) ([]byte, error) {
	if h.hasTail && no == h.tailNo && h.tailDirty {
		return h.tail, nil
	}
	return h.p.Read(h.fid, no)
}

// cursor is the page-at-a-time record reader under Heap and HeapView: it
// holds the last page fetched, so every record and length prefix that
// lies on that page is served without another fetch. The context is
// checked before each page fetch — the granularity at which scans and
// reads honor cancellation.
type cursor struct {
	ctx   context.Context
	end   uint64 // record extent
	fetch func(no uint32) ([]byte, error)
	what  string // "heap" or "heap view", for errors

	no  uint32
	pg  []byte // page no, nil before the first fetch
	buf []byte // reused for records that span pages
}

func (c *cursor) page(no uint32) ([]byte, error) {
	if c.pg != nil && c.no == no {
		return c.pg, nil
	}
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	pg, err := c.fetch(no)
	if err != nil {
		return nil, err
	}
	c.no, c.pg = no, pg
	return pg, nil
}

// span returns the n bytes at off: a sub-slice of one page when they lie
// on it, else a copy into the reused buffer.
func (c *cursor) span(off uint64, n int) ([]byte, error) {
	if n == 0 {
		return nil, nil // an empty body may start past the last page
	}
	pg, err := c.page(uint32(off / PageSize))
	if err != nil {
		return nil, err
	}
	po := int(off % PageSize)
	if po+n <= PageSize {
		return pg[po : po+n], nil
	}
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	b := c.buf[:n]
	for k := 0; k < n; {
		pg, err := c.page(uint32(off / PageSize))
		if err != nil {
			return nil, err
		}
		m := copy(b[k:], pg[off%PageSize:])
		k += m
		off += uint64(m)
	}
	return b, nil
}

// record returns the record whose length prefix starts at off. The
// result aliases a page or the cursor's buffer: it is valid only until
// the next call.
func (c *cursor) record(off uint64) ([]byte, error) {
	if off+4 > c.end {
		return nil, fmt.Errorf("pager: rid %d beyond %s end %d", off, c.what, c.end)
	}
	pfx, err := c.span(off, 4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(pfx)
	if off+4+uint64(n) > c.end {
		return nil, fmt.Errorf("pager: rid %d has corrupt length %d in %s", off, n, c.what)
	}
	return c.span(off+4, int(n))
}

// get returns a private copy of the record at rid. A record that spans
// pages was already copied into the buffer of this one-use cursor, so
// only a record aliasing a page is copied.
func (c *cursor) get(rid RID) ([]byte, error) {
	rec, err := c.record(uint64(rid))
	if err != nil || (len(rec) > 0 && len(c.buf) > 0 && &rec[0] == &c.buf[0]) {
		return rec, err
	}
	return append([]byte{}, rec...), nil
}

// scan visits every record of the extent in insertion order, fetching
// each page once; fn's rec is valid only during the call.
func (c *cursor) scan(fn func(rid RID, rec []byte) bool) error {
	for off := uint64(0); off < c.end; {
		rec, err := c.record(off)
		if err != nil {
			return err
		}
		if !fn(RID(off), rec) {
			return nil
		}
		off += 4 + uint64(len(rec))
	}
	return nil
}

func (h *Heap) cursor(ctx context.Context) *cursor {
	return &cursor{ctx: ctx, end: h.end, fetch: h.fetch, what: "heap"}
}

// Get returns the record stored at rid. The result is a fresh copy.
// Cancellation via ctx is honored at page-fetch granularity.
func (h *Heap) Get(ctx context.Context, rid RID) ([]byte, error) {
	return h.cursor(ctx).get(rid)
}

// Scan visits every record in insertion order, fetching each page once
// (through the buffer pool, or the in-memory tail while it is dirty).
// rec aliases the page, or a buffer reused for records that span pages:
// it is valid only during the call, and fn must copy what it keeps.
// Returning false stops the scan early. Cancellation via ctx is honored
// at page-fetch granularity.
func (h *Heap) Scan(ctx context.Context, fn func(rid RID, rec []byte) bool) error {
	return h.cursor(ctx).scan(fn)
}

// Reset truncates the heap to empty so it can be rebuilt (used when a
// catalog is rewritten after document updates).
func (h *Heap) Reset() error {
	if err := h.p.Truncate(h.fid); err != nil {
		return err
	}
	h.end = 0
	h.flushed = 0
	h.tail = nil
	h.hasTail = false
	h.tailDirty = false
	h.count = 0
	return nil
}
