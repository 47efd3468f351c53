package pager

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// scanRec is one visited record, copied out of the callback.
type scanRec struct {
	rid RID
	rec []byte
}

// recordReader is the read surface Heap and HeapView share.
type recordReader interface {
	Get(ctx context.Context, rid RID) ([]byte, error)
	Scan(ctx context.Context, fn func(rid RID, rec []byte) bool) error
	Bytes() uint64
}

// getWalk reads every record with Get, following the length prefixes:
// the reference the page-at-a-time scan must reproduce.
func getWalk(t *testing.T, r recordReader) []scanRec {
	t.Helper()
	var out []scanRec
	for off := uint64(0); off < r.Bytes(); {
		rec, err := r.Get(context.Background(), RID(off))
		if err != nil {
			t.Fatalf("Get(%d): %v", off, err)
		}
		out = append(out, scanRec{RID(off), rec})
		off += 4 + uint64(len(rec))
	}
	return out
}

func scanAll(t *testing.T, r recordReader) []scanRec {
	t.Helper()
	var out []scanRec
	if err := r.Scan(context.Background(), func(rid RID, rec []byte) bool {
		out = append(out, scanRec{rid, append([]byte(nil), rec...)})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameRecs(t *testing.T, what string, got, want []scanRec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].rid != want[i].rid || !bytes.Equal(got[i].rec, want[i].rec) {
			t.Fatalf("%s: record %d at rid %d (%d bytes), want rid %d (%d bytes)",
				what, i, got[i].rid, len(got[i].rec), want[i].rid, len(want[i].rec))
		}
	}
}

// randomRecords inserts n records of randomized sizes into h: empty
// records, records larger than a page, and records sized so that the
// next length prefix straddles a page boundary. It returns the inserted
// contents in order.
func randomRecords(t *testing.T, h *Heap, rng *rand.Rand, n int, tag string) [][]byte {
	t.Helper()
	var recs [][]byte
	for i := 0; i < n; i++ {
		var size int
		switch i % 5 {
		case 0:
			size = 0
		case 1:
			size = PageSize + rng.Intn(2*PageSize)
		case 2:
			// Leave 1-3 bytes of the page for the next prefix.
			used := int((h.Bytes() + 4) % PageSize)
			size = (PageSize - 1 - rng.Intn(3) - used + PageSize) % PageSize
		default:
			size = rng.Intn(300)
		}
		rec := make([]byte, size)
		for j := range rec {
			rec[j] = byte(rng.Intn(256))
		}
		copy(rec, fmt.Sprintf("%s%d.", tag, i))
		if _, err := h.Insert(rec); err != nil {
			t.Error(err) // Error, not Fatal: writers call this off the test goroutine
			return recs
		}
		recs = append(recs, rec)
	}
	return recs
}

func TestHeapScanMatchesGetWalk(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := New(8)
		h := NewHeap(p, "heap")
		recs := randomRecords(t, h, rand.New(rand.NewSource(seed)), 60, "r")
		// One more small record keeps the tail page dirty and unflushed,
		// so the scan must read it from memory.
		if _, err := h.Insert([]byte("tail")); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, []byte("tail"))
		if !h.tailDirty {
			t.Fatal("setup: tail page is not dirty")
		}

		want := getWalk(t, h)
		straddles := 0
		for i, r := range want {
			if !bytes.Equal(r.rec, recs[i]) {
				t.Fatalf("seed %d: Get walk record %d differs from the inserted one", seed, i)
			}
			if PageSize-uint64(r.rid)%PageSize < 4 {
				straddles++
			}
		}
		if straddles == 0 {
			t.Fatalf("seed %d: no length prefix straddles a page boundary", seed)
		}
		sameRecs(t, fmt.Sprintf("seed %d heap scan", seed), scanAll(t, h), want)

		// Get's results are private: scribbling on them changes nothing.
		for _, r := range want {
			for j := range r.rec {
				r.rec[j] ^= 0xff
			}
		}
		for i, r := range getWalk(t, h) {
			if !bytes.Equal(r.rec, recs[i]) {
				t.Fatalf("seed %d: record %d changed after its Get copy was modified", seed, i)
			}
		}
	}
}

func TestHeapViewScanAtOlderEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := New(8)
	h := NewHeap(p, "heap")
	rewrite := func(tag string, n int) {
		p.BeginMutation()
		if err := h.Reset(); err != nil {
			t.Fatal(err)
		}
		randomRecords(t, h, rng, n, tag)
		if err := h.Flush(); err != nil {
			t.Fatal(err)
		}
		p.EndMutation()
	}

	rewrite("old", 40)
	snap := p.PinSnapshot()
	defer snap.Release()
	v, err := h.View(snap.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	old := getWalk(t, v)

	// Overwrite the same pages twice; the view keeps the old epoch.
	rewrite("new", 55)
	rewrite("newer", 30)

	sameRecs(t, "view Get walk after overwrites", getWalk(t, v), old)
	sameRecs(t, "view scan after overwrites", scanAll(t, v), old)
	sameRecs(t, "live scan", scanAll(t, h), getWalk(t, h))
	if got := scanAll(t, h); len(got) != 30 || !bytes.HasPrefix(got[1].rec, []byte("newer1.")) {
		t.Fatalf("live scan saw %d records, want the 30 of the last rewrite", len(got))
	}
}

// smallRecordHeap fills several pages with 100-byte records and flushes.
func smallRecordHeap(t *testing.T) (*Pager, *Heap) {
	t.Helper()
	p := New(16)
	h := NewHeap(p, "heap")
	for i := 0; i < 200; i++ {
		if _, err := h.Insert(bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	return p, h
}

func TestHeapScanEarlyStopFetchesOnePage(t *testing.T) {
	p, h := smallRecordHeap(t)
	p.ResetStats()
	n := 0
	if err := h.Scan(context.Background(), func(RID, []byte) bool {
		n++
		return n < 5
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("visited %d records, want 5", n)
	}
	// Five 104-byte records lie on page 0: one fetch, however many
	// prefixes and bodies were read from it.
	if st := p.Stats(); st.Hits+st.Reads != 1 {
		t.Fatalf("early stop fetched %d pages, want 1", st.Hits+st.Reads)
	}

	// A full scan fetches each page exactly once.
	p.ResetStats()
	scanAll(t, h)
	if st := p.Stats(); st.Hits+st.Reads != h.Pages() {
		t.Fatalf("full scan fetched %d pages, want %d", st.Hits+st.Reads, h.Pages())
	}
}

func TestHeapScanCancelAtPageGranularity(t *testing.T) {
	p, h := smallRecordHeap(t)
	onFirstPage := 0
	for _, r := range getWalk(t, h) {
		if uint64(r.rid)+4+uint64(len(r.rec)) <= PageSize {
			onFirstPage++
		}
	}

	// Cancelled inside the first callback: the records already on the
	// fetched page are still delivered, the next page fetch is not made.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.ResetStats()
	n := 0
	err := h.Scan(ctx, func(RID, []byte) bool {
		n++
		cancel()
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("scan returned %v, want context.Canceled", err)
	}
	if n != onFirstPage {
		t.Fatalf("visited %d records after cancel, want the %d on the first page", n, onFirstPage)
	}
	if st := p.Stats(); st.Hits+st.Reads != 1 {
		t.Fatalf("cancelled scan fetched %d pages, want 1", st.Hits+st.Reads)
	}

	// Cancelled before the start: no page is fetched, nothing visited.
	p.ResetStats()
	v, err := h.LiveView()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []recordReader{h, v} {
		if err := r.Scan(ctx, func(RID, []byte) bool {
			t.Fatal("visited a record under a cancelled context")
			return false
		}); !errors.Is(err, context.Canceled) {
			t.Fatalf("scan returned %v, want context.Canceled", err)
		}
	}
	if st := p.Stats(); st.Hits+st.Reads != 0 {
		t.Fatalf("pre-cancelled scans fetched %d pages", st.Hits+st.Reads)
	}
}

func TestHeapScanCorruptLength(t *testing.T) {
	p := New(8)
	h := NewHeap(p, "heap")
	for _, rec := range []string{"abc", "defgh"} {
		if _, err := h.Insert([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	// Claim the second record is longer than the heap.
	pg, err := p.Read(h.fid, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), pg...)
	bad[7+3] = 0xff
	if err := p.Write(h.fid, 0, bad); err != nil {
		t.Fatal(err)
	}
	n := 0
	err = h.Scan(context.Background(), func(RID, []byte) bool { n++; return true })
	if err == nil || n != 1 {
		t.Fatalf("scan over a corrupt length visited %d records, err %v", n, err)
	}
	if _, err := h.Get(context.Background(), 7); err == nil {
		t.Fatal("Get of a corrupt length succeeded")
	}
}

// TestHeapViewScanDuringRewrite scans an epoch-pinned view from several
// goroutines while a writer keeps rewriting the same pages under
// mutation brackets. Records alias pool pages during the callback, so
// this relies on the pager replacing frames wholesale. Run with -race.
func TestHeapViewScanDuringRewrite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := New(8) // smaller than the heap: the rewrites evict under the readers
	h := NewHeap(p, "heap")
	rewrite := func(tag string) {
		p.BeginMutation()
		if err := h.Reset(); err != nil {
			t.Error(err)
		}
		randomRecords(t, h, rng, 25, tag)
		if err := h.Flush(); err != nil {
			t.Error(err)
		}
		p.EndMutation()
		p.GC()
	}
	rewrite("base")
	snap := p.PinSnapshot()
	defer snap.Release()
	v, err := h.View(snap.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	want := getWalk(t, v)

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rewrite(fmt.Sprintf("w%d-", i))
		}
	}()

	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 20; i++ {
				k := 0
				err := v.Scan(context.Background(), func(rid RID, rec []byte) bool {
					if k >= len(want) || rid != want[k].rid || !bytes.Equal(rec, want[k].rec) {
						t.Errorf("scan %d: record %d at rid %d does not match the pinned epoch", i, k, rid)
						return false
					}
					k++
					return true
				})
				if err != nil || k != len(want) {
					t.Errorf("scan %d: %d of %d records, err %v", i, k, len(want), err)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// TestHeapEmptyRecordAtPageEnd: an empty record whose prefix ends the
// heap exactly on a page boundary has no body page to fetch.
func TestHeapEmptyRecordAtPageEnd(t *testing.T) {
	p := New(8)
	h := NewHeap(p, "heap")
	if _, err := h.Insert(make([]byte, PageSize-8)); err != nil {
		t.Fatal(err)
	}
	rid, err := h.Insert(nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bytes() != PageSize {
		t.Fatalf("setup: heap ends at %d, want %d", h.Bytes(), PageSize)
	}
	v, err := h.LiveView()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []recordReader{h, v} {
		if rec, err := r.Get(context.Background(), rid); err != nil || len(rec) != 0 {
			t.Fatalf("Get of the empty record = %d bytes, %v", len(rec), err)
		}
		if got := scanAll(t, r); len(got) != 2 || len(got[1].rec) != 0 {
			t.Fatalf("scan saw %d records", len(got))
		}
	}
}
