package pager

import "context"

// HeapView is an immutable snapshot of a Heap: the record extent frozen
// at view time, with every page read served as of a commit epoch
// (pager.ReadAt). A view never consults the heap's in-memory tail or
// mutable cursors, so it is safe to use from any goroutine while the
// owning engine's writer keeps inserting, truncating or rewriting the
// live heap — as long as the reader holds a Snap pinned at the view's
// epoch (otherwise GC may reclaim the page versions the view depends on).
//
// Views are built by the writer at state-publish time (engines publish
// one per heap inside their snapshot state) and by tests.
type HeapView struct {
	p     *Pager
	fid   FileID
	end   uint64
	count int
	epoch uint64
}

// View freezes the heap's current extent as of the given commit epoch.
// A buffered-but-unflushed tail page would be invisible to the pager, so
// View flushes it first; engines call View after their per-update syncs,
// making this a no-op in practice.
func (h *Heap) View(epoch uint64) (HeapView, error) {
	if h.tailDirty {
		if err := h.Flush(); err != nil {
			return HeapView{}, err
		}
	}
	return HeapView{p: h.p, fid: h.fid, end: h.end, count: h.count, epoch: epoch}, nil
}

// LiveView freezes the heap's extent with live (unversioned) page reads —
// the degenerate view used when snapshots are disabled.
func (h *Heap) LiveView() (HeapView, error) { return h.View(LiveEpoch) }

// Epoch returns the view's commit epoch (LiveEpoch for a live view).
func (v HeapView) Epoch() uint64 { return v.epoch }

// Count returns the number of records in the view.
func (v HeapView) Count() int { return v.count }

// Bytes returns the record extent of the view.
func (v HeapView) Bytes() uint64 { return v.end }

// Pages returns the page count of the view's extent — the scan cost the
// planner sees for this snapshot.
func (v HeapView) Pages() int64 {
	if v.end == 0 {
		return 0
	}
	return int64((v.end + PageSize - 1) / PageSize)
}

func (v HeapView) cursor(ctx context.Context) *cursor {
	return &cursor{ctx: ctx, end: v.end, what: "heap view",
		fetch: func(no uint32) ([]byte, error) { return v.p.ReadAt(v.fid, no, v.epoch) }}
}

// Get returns a fresh copy of the record stored at rid, as of the view.
func (v HeapView) Get(ctx context.Context, rid RID) ([]byte, error) {
	return v.cursor(ctx).get(rid)
}

// Scan visits every record of the view in insertion order, fetching each
// page once at the view's epoch. rec is valid only during the call, as
// for Heap.Scan. Returning false stops early.
func (v HeapView) Scan(ctx context.Context, fn func(rid RID, rec []byte) bool) error {
	return v.cursor(ctx).scan(fn)
}
