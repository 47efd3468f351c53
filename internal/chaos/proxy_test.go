package chaos_test

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xbench/internal/chaos"
	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/server"
	"xbench/internal/wire"
)

// wireStub answers every query instantly; just enough engine to put real
// request/response traffic through the proxy.
type wireStub struct{ closed atomic.Bool }

func (e *wireStub) Name() string                         { return "wire-stub" }
func (e *wireStub) Supports(core.Class, core.Size) error { return nil }
func (e *wireStub) BuildIndexes([]core.IndexSpec) error  { return nil }
func (e *wireStub) ColdReset()                           {}
func (e *wireStub) PageIO() int64                        { return 0 }
func (e *wireStub) Close() error                         { e.closed.Store(true); return nil }
func (e *wireStub) Load(context.Context, *core.Database) (core.LoadStats, error) {
	return core.LoadStats{}, nil
}
func (e *wireStub) Execute(context.Context, core.QueryID, core.Params) (core.Result, error) {
	return core.Result{Items: []string{"<x/>"}}, nil
}
func (e *wireStub) InsertDocument(context.Context, string, []byte) error  { return nil }
func (e *wireStub) ReplaceDocument(context.Context, string, []byte) error { return nil }
func (e *wireStub) DeleteDocument(context.Context, string) error          { return nil }

// typedTransportErr reports whether err is one of the error shapes the
// client is allowed to surface for a severed connection — anything else
// (a silent success, a mangled result, a hang) is a protocol bug.
func typedTransportErr(err error) bool {
	var ne net.Error
	var oe *net.OpError
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, wire.ErrChecksum) ||
		errors.Is(err, wire.ErrOverloaded) ||
		errors.Is(err, wire.ErrShutdown) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.As(err, &ne) ||
		errors.As(err, &oe)
}

// TestProxyFaultsSurfaceTypedAndServerSurvives drives concurrent query
// traffic through a fault-injecting proxy severing connections mid-
// request and mid-frame. Every operation must either succeed or return a
// typed error, no client may hang, the admission gauge must return to
// zero, and the server must still answer cleanly afterwards.
func TestProxyFaultsSurfaceTypedAndServerSurvives(t *testing.T) {
	eng := &wireStub{}
	srv := server.New(eng, server.Config{MaxInflight: 8})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	proxy, err := chaos.NewProxy(srv.Addr().String(), chaos.ProxyConfig{
		Seed:     42,
		DropRate: 0.10,
		TearRate: 0.10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	const clients, opsEach = 6, 30
	var ok, failed atomic.Int64
	var badMu sync.Mutex
	var badErrs []error
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Retry disabled: each fault must surface, so the test can
			// classify every single failure.
			cl := &faultClient{addr: proxy.Addr()}
			defer cl.close()
			for op := 0; op < opsEach; op++ {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				err := cl.query(ctx)
				cancel()
				switch {
				case err == nil:
					ok.Add(1)
				case typedTransportErr(err):
					failed.Add(1)
				default:
					badMu.Lock()
					badErrs = append(badErrs, err)
					badMu.Unlock()
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("clients wedged behind the faulty proxy")
	}

	if len(badErrs) > 0 {
		t.Fatalf("%d untyped errors, first: %v", len(badErrs), badErrs[0])
	}
	drops, tears := proxy.Faults()
	if drops+tears == 0 {
		t.Fatal("proxy injected no faults; test exercised nothing")
	}
	if failed.Load() == 0 {
		t.Fatal("faults were injected but no operation failed")
	}
	if ok.Load() == 0 {
		t.Fatal("every operation failed; fault rates drowned the signal")
	}
	t.Logf("ops ok=%d failed=%d; faults drops=%d tears=%d", ok.Load(), failed.Load(), drops, tears)

	// Admission slots leak-free: the gauge must settle back to zero even
	// though many requests died mid-flight.
	ictx, icancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer icancel()
	if err := srv.WaitIdle(ictx); err != nil {
		t.Fatalf("admission gauge stuck at %d after the storm: %v", srv.Inflight(), err)
	}

	// The server is not wedged: a clean (direct, no proxy) client gets
	// normal service.
	direct, err := client.Dial(srv.Addr().String(), client.Config{})
	if err != nil {
		t.Fatalf("server unreachable after fault storm: %v", err)
	}
	defer direct.Close()
	res, err := direct.Execute(context.Background(), core.Q1, core.Params{"X": "I1"})
	if err != nil || len(res.Items) != 1 {
		t.Fatalf("post-storm query: %+v, %v", res, err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("graceful shutdown after fault storm: %v", err)
	}
	if !eng.closed.Load() {
		t.Fatal("engine not closed by shutdown")
	}
}

// faultClient wraps client.Client with retry disabled so that every
// injected fault surfaces as an error the test can classify.
type faultClient struct {
	addr string

	mu sync.Mutex
	c  *client.Client
}

func (f *faultClient) query(ctx context.Context) error {
	f.mu.Lock()
	if f.c == nil {
		c, err := client.Dial(f.addr, client.Config{Retries: -1})
		if err != nil {
			f.mu.Unlock()
			return err
		}
		f.c = c
	}
	c := f.c
	f.mu.Unlock()
	_, err := c.Execute(ctx, core.Q1, core.Params{"X": "I1"})
	return err
}

func (f *faultClient) close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.c != nil {
		f.c.Close()
	}
}

// TestProxyDeterministicFaultSchedule pins that the same seed replays
// the same fault counts for the same traffic pattern, the property that
// makes a failing chaos run reproducible from its log line.
func TestProxyDeterministicFaultSchedule(t *testing.T) {
	run := func(seed uint64) (int64, int64) {
		eng := &wireStub{}
		srv := server.New(eng, server.Config{MaxInflight: 4})
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		proxy, err := chaos.NewProxy(srv.Addr().String(), chaos.ProxyConfig{
			Seed: seed, DropRate: 0.25, TearRate: 0.25,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()
		// Sequential single-connection-at-a-time traffic so connection
		// ordinals are deterministic.
		for i := 0; i < 40; i++ {
			cl, err := client.Dial(proxy.Addr(), client.Config{Retries: -1})
			if err != nil {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, _ = cl.Execute(ctx, core.Q1, nil)
			cancel()
			cl.Close()
		}
		return proxy.Faults()
	}
	d1, t1 := run(7)
	d2, t2 := run(7)
	if d1 != d2 || t1 != t2 {
		t.Fatalf("same seed, different schedule: (%d,%d) vs (%d,%d)", d1, t1, d2, t2)
	}
	if d1+t1 == 0 {
		t.Fatal("deterministic run injected no faults")
	}
}
