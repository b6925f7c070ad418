package wire

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := [][]string{
		{},
		{""},
		{"SELECT * FROM t"},
		{"a", "", "b", strings.Repeat("x", 1000)},
		{"SELECT * FROM movies WHERE year > 1990", "SELECT * FROM movies, directors WHERE movies.did = directors.id"},
	}
	for _, qs := range cases {
		frame := AppendRequest(nil, qs)
		got, err := DecodeRequest(frame, 0)
		if err != nil {
			t.Fatalf("decode %d queries: %v", len(qs), err)
		}
		if len(got) != len(qs) {
			t.Fatalf("count: got %d want %d", len(got), len(qs))
		}
		for i := range qs {
			if got[i] != qs[i] {
				t.Fatalf("query %d: got %q want %q", i, got[i], qs[i])
			}
		}
	}
}

// TestRequestArenaIsolated pins the zero-copy safety contract: the decoded
// strings must not alias the input buffer, so a transport recycling its
// read buffer cannot corrupt queries retained by the estimator (rep cache,
// pool keys).
func TestRequestArenaIsolated(t *testing.T) {
	frame := AppendRequest(nil, []string{"SELECT 1", "SELECT 2"})
	got, err := DecodeRequest(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xFF
	}
	if got[0] != "SELECT 1" || got[1] != "SELECT 2" {
		t.Fatalf("decoded strings alias the input buffer: %q %q", got[0], got[1])
	}
}

func TestRequestDecodeErrors(t *testing.T) {
	valid := AppendRequest(nil, []string{"SELECT 1"})
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrBadFrame},
		{"short header", []byte{Version, 0}, ErrBadFrame},
		{"bad version", append([]byte{99}, valid[1:]...), ErrBadFrame},
		{"count past payload", []byte{Version, 0xFF, 0xFF, 0xFF, 0xFF}, ErrBadFrame},
		{"truncated record", valid[:len(valid)-3], ErrBadFrame},
		{"length past end", func() []byte {
			f := append([]byte(nil), valid...)
			f[5] = 0xF0 // inflate the first query's length prefix
			return f
		}(), ErrBadFrame},
		{"trailing bytes", append(append([]byte(nil), valid...), 1, 2, 3), ErrBadFrame},
	}
	for _, tc := range cases {
		if _, err := DecodeRequest(tc.data, 0); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	many := AppendRequest(nil, []string{"a", "b", "c"})
	if _, err := DecodeRequest(many, 2); !errors.Is(err, ErrTooMany) {
		t.Errorf("limit: got %v, want ErrTooMany", err)
	}
	if _, err := DecodeRequest(many, 3); err != nil {
		t.Errorf("at limit: %v", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := [][]float64{
		{},
		{0},
		{1.5, -2.25, math.Inf(1), math.MaxFloat64, 4.2e9},
	}
	for _, ests := range cases {
		frame := AppendResponse(nil, ests)
		if len(frame) != ResponseSize(len(ests)) {
			t.Fatalf("ResponseSize(%d)=%d, frame is %d", len(ests), ResponseSize(len(ests)), len(frame))
		}
		got, err := DecodeResponse(frame)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ests) {
			t.Fatalf("count: got %d want %d", len(got), len(ests))
		}
		for i := range ests {
			if math.Float64bits(got[i]) != math.Float64bits(ests[i]) {
				t.Fatalf("estimate %d: got %v want %v", i, got[i], ests[i])
			}
		}
	}

	if _, err := DecodeResponse([]byte{Version, 1, 0, 0, 0, 9}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short response: got %v", err)
	}
	if _, err := DecodeResponse([]byte{7, 0, 0, 0, 0}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad version: got %v", err)
	}
}

func TestBufferPoolStats(t *testing.T) {
	var p BufferPool
	b := p.Get()
	if gets, misses, _ := p.Stats(); gets != 1 || misses != 1 {
		t.Fatalf("after first get: gets=%d misses=%d", gets, misses)
	}
	// Under -race sync.Pool drops Puts at random: retry until one survives.
	tries := uint64(0)
	for reused := false; !reused; tries++ {
		if tries == 100 {
			t.Fatal("no buffer ever came back from the pool")
		}
		p.Put(append(b[:0], make([]byte, 512)...))
		b = p.Get()
		if reused = cap(b) >= 512; reused && len(b) != 0 {
			t.Fatalf("recycled buffer: len=%d cap=%d", len(b), cap(b))
		}
	}
	if gets, misses, _ := p.Stats(); gets != 1+tries || misses != tries {
		t.Fatalf("after reuse on try %d: gets=%d misses=%d", tries, gets, misses)
	}
	p.Put(nil) // zero-cap buffers are dropped, not pooled
}

// TestBufferPoolDropsOversize: one large body must not stay parked in the
// pool. A buffer above maxPooledBuffer is dropped and counted; one at the
// bound is kept.
func TestBufferPoolDropsOversize(t *testing.T) {
	var p BufferPool
	p.Put(make([]byte, 0, maxPooledBuffer+1))
	if _, _, drops := p.Stats(); drops != 1 {
		t.Fatalf("drops = %d after an oversize Put, want 1", drops)
	}
	if b := p.Get(); cap(b) != 0 {
		t.Fatalf("oversize buffer was pooled: cap %d", cap(b))
	}
	p.Put(make([]byte, 0, maxPooledBuffer))
	p.Put(nil)
	if _, misses, drops := p.Stats(); misses != 1 || drops != 1 {
		t.Fatalf("misses=%d drops=%d, want 1 and 1: only the oversize Put is a drop", misses, drops)
	}
}

// FuzzBatchFrame feeds arbitrary bytes to both decoders (must never panic)
// and, when the bytes happen to decode, re-encodes and checks the frames
// round-trip exactly.
func FuzzBatchFrame(f *testing.F) {
	f.Add(AppendRequest(nil, []string{"SELECT * FROM t", ""}))
	f.Add(AppendResponse(nil, []float64{1, 2.5}))
	f.Add([]byte{Version, 0xFF, 0xFF, 0xFF, 0x7F, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if qs, err := DecodeRequest(data, 1<<16); err == nil {
			again := AppendRequest(nil, qs)
			if string(again) != string(data) {
				t.Fatalf("request round-trip mismatch: %x vs %x", again, data)
			}
		}
		if ests, err := DecodeResponse(data); err == nil {
			again := AppendResponse(nil, ests)
			if string(again) != string(data) {
				t.Fatalf("response round-trip mismatch: %x vs %x", again, data)
			}
		}
	})
}
