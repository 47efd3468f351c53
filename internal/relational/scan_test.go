package relational

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"xbench/internal/metrics"
	"xbench/internal/pager"
)

// projTable builds a table whose values include NULLs, empty strings and
// rows long enough to span heap pages, flushed and cold.
func projTable(t *testing.T) (*DB, *Table) {
	t.Helper()
	p := pager.New(16)
	p.SetMetrics(metrics.NewRegistry())
	db := NewDB(p)
	tb := db.Create("t", "id", "grp", "note", "date")
	for i := 0; i < 300; i++ {
		grp := fmt.Sprintf("g%d", i%7)
		switch i % 11 {
		case 3:
			grp = Null
		case 5:
			grp = ""
		}
		note := strings.Repeat("n", i%13)
		if i%37 == 0 {
			note = strings.Repeat("long", pager.PageSize/2) // spans pages
		}
		date := fmt.Sprintf("2001-%02d-%02d", 1+i%12, 1+i%28)
		if i%9 == 0 {
			date = Null
		}
		if err := tb.Insert(Row{fmt.Sprintf("I%d", i), grp, note, date}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	p.ColdReset()
	return db, tb
}

func allRows(t *testing.T, tb *Table) []Row {
	t.Helper()
	var rows []Row
	if err := tb.Scan(context.Background(), func(r Row) bool {
		rows = append(rows, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// tables returns tb and its epoch-pinned snapshot twin; every read
// operator must answer the same on both.
func tables(t *testing.T, db *DB, tb *Table) []*Table {
	t.Helper()
	snap := db.Pager.PinSnapshot()
	t.Cleanup(snap.Release)
	sdb, err := db.Snapshot(snap.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	return []*Table{tb, sdb.Table(tb.Name)}
}

func TestScanColsMatchesScan(t *testing.T) {
	db, live := projTable(t)
	want := allRows(t, live)
	for _, tb := range tables(t, db, live) {
		for _, cols := range [][]int{{0}, {3, 1}, {2, 0, 2}, {0, 1, 2, 3}, {}} {
			var got [][]string
			if err := tb.ScanCols(context.Background(), cols, func(vals []string) bool {
				got = append(got, slices.Clone(vals))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("ScanCols%v: %d rows, want %d", cols, len(got), len(want))
			}
			for i, r := range want {
				for j, ci := range cols {
					if got[i][j] != r[ci] {
						t.Fatalf("ScanCols%v row %d col %d = %q, want %q", cols, i, ci, got[i][j], r[ci])
					}
				}
			}
		}
	}
}

// TestScanColsValuesOutliveTheScan: each value is its own string, so
// values kept from the callback stay intact after the pages they were
// decoded from are evicted and the table is rewritten.
func TestScanColsValuesOutliveTheScan(t *testing.T) {
	_, tb := projTable(t)
	want := allRows(t, tb)
	var notes []string
	if err := tb.ScanCols(context.Background(), []int{2}, func(vals []string) bool {
		notes = append(notes, vals[0])
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.DeleteWhere(context.Background(), "grp", "g1"); err != nil {
		t.Fatal(err)
	}
	tb.db.Pager.ColdReset()
	for i, r := range want {
		if notes[i] != r[2] {
			t.Fatalf("kept value %d changed to %q after the rewrite", i, notes[i])
		}
	}
}

func TestScanRowCountersExact(t *testing.T) {
	_, tb := projTable(t)
	reg := tb.reg()
	scans, rows := reg.Counter("relational.scan"), reg.Counter("relational.scan.row")
	s0, r0 := scans.Value(), rows.Value()
	n := 0
	if err := tb.ScanCols(context.Background(), []int{0}, func([]string) bool { n++; return n < 42 }); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ScanEq(context.Background(), "grp", "g2"); err != nil {
		t.Fatal(err)
	}
	if got := scans.Value() - s0; got != 2 {
		t.Fatalf("relational.scan += %d, want 2", got)
	}
	if got := rows.Value() - r0; got != int64(42+tb.Count()) {
		t.Fatalf("relational.scan.row += %d, want %d", got, 42+tb.Count())
	}
}

// TestPredicateFiltersMatchFullDecode: the filters test the predicate on
// the encoded column and decode only matching rows; they must return
// exactly what filtering fully decoded rows returns, NULL and empty
// values included, on the scan fallbacks and the forced-scan operators.
func TestPredicateFiltersMatchFullDecode(t *testing.T) {
	db, live := projTable(t)
	rows := allRows(t, live)
	keep := func(pred func(Row) bool, n int) []Row {
		var out []Row
		for _, r := range rows {
			if pred(r) && (n <= 0 || len(out) < n) {
				out = append(out, r)
			}
		}
		return out
	}
	same := func(what string, got []Row, err error, want []Row) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !slices.EqualFunc(got, want, func(a, b Row) bool { return slices.Equal(a, b) }) {
			t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
		}
	}
	ctx := context.Background()
	for _, tb := range tables(t, db, live) {
		for _, val := range []string{"g3", "", Null, "absent"} {
			eq := func(r Row) bool { return r[1] == val }
			got, err := tb.ScanEq(ctx, "grp", val)
			same("ScanEq "+val, got, err, keep(eq, 0))
			got, err = tb.LookupEq(ctx, "grp", val)
			same("LookupEq "+val, got, err, keep(eq, 0))
			got, err = tb.LookupEqN(ctx, "grp", val, 3)
			same("LookupEqN "+val, got, err, keep(eq, 3))
		}
		for _, rg := range [][2]string{{"2001-03-01", "2001-06-30"}, {"", "2001-01-31"}, {"2002", "2003"}} {
			lo, hi := rg[0], rg[1]
			in := func(r Row) bool { return !IsNull(r[3]) && r[3] >= lo && r[3] <= hi }
			got, err := tb.ScanRange(ctx, "date", lo, hi)
			same("ScanRange "+lo, got, err, keep(in, 0))
			got, err = tb.LookupRange(ctx, "date", lo, hi)
			same("LookupRange "+lo, got, err, keep(in, 0))
		}
	}
}

func TestDeleteWhereAndIndexBuildOnEncodedRows(t *testing.T) {
	_, tb := projTable(t)
	ctx := context.Background()
	rows := allRows(t, tb)
	if err := tb.CreateIndex("grp"); err != nil {
		t.Fatal(err)
	}
	n, err := tb.DeleteWhere(ctx, "grp", "")
	if err != nil {
		t.Fatal(err)
	}
	var want []Row
	for _, r := range rows {
		if r[1] != "" {
			want = append(want, r)
		}
	}
	if n != len(rows)-len(want) || n == 0 {
		t.Fatalf("deleted %d rows, want %d", n, len(rows)-len(want))
	}
	if got := allRows(t, tb); !slices.EqualFunc(got, want, func(a, b Row) bool { return slices.Equal(a, b) }) {
		t.Fatalf("%d rows survive the delete, want %d", len(got), len(want))
	}
	// The rebuilt index skips NULLs and serves the remaining values.
	for _, val := range []string{"g4", Null} {
		byIndex, err := tb.LookupEq(ctx, "grp", val)
		if err != nil {
			t.Fatal(err)
		}
		byScan, _ := tb.ScanEq(ctx, "grp", val)
		if val == Null {
			byScan = nil // NULLs are not indexed and never equal anything
		}
		if len(byIndex) != len(byScan) {
			t.Fatalf("index lookup of %q = %d rows, scan = %d", val, len(byIndex), len(byScan))
		}
	}
}

func TestPredicatesDoNotAllocate(t *testing.T) {
	rec := encodeRow(Row{"I1", "g3", "2001-04-05"})
	eq, in := eqMatch("g3"), rangeMatch("2001-01-01", "2001-12-31")
	allocs := testing.AllocsPerRun(100, func() {
		if !eq(colBytes(rec, 1)) || !in(colBytes(rec, 2)) {
			panic("predicate mismatch")
		}
	})
	if allocs != 0 {
		t.Fatalf("predicates allocate %.1f times per row", allocs)
	}
}

// FuzzRowCodec: for any row, encodeRow followed by per-column extraction
// and by decodeRow returns the row. The first input byte picks the
// column separator for the rest, so values can hold any other byte.
func FuzzRowCodec(f *testing.F) {
	f.Add([]byte("|I1|Title||\x00NULL"))
	f.Add([]byte(""))
	f.Add([]byte("\x00\x00\x00"))
	f.Add([]byte(",ünïcødé,<x>&amp;</x>"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var row Row
		if len(data) > 0 {
			row = Row(strings.Split(string(data[1:]), string(data[:1])))
		}
		if len(row) > math.MaxUint16 {
			return
		}
		rec := encodeRow(row)
		if got := decodeRow(rec); !slices.Equal(got, row) {
			t.Fatalf("decodeRow(encodeRow(%q)) = %q", row, got)
		}
		for ci, v := range row {
			if got := string(colBytes(rec, ci)); got != v {
				t.Fatalf("column %d of %q extracted as %q", ci, row, got)
			}
		}
	})
}
