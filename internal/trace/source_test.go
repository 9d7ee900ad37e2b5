package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lasmq/internal/substrate"
)

// TestFacebookSourceMatchesMaterialized pins the two-pass streaming
// generator's contract: for any seed, the streamed sequence is byte-identical
// to the materialized Facebook trace.
func TestFacebookSourceMatchesMaterialized(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := DefaultFacebookConfig()
		cfg.Jobs = 2000
		cfg.Seed = seed
		want, err := Facebook(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewFacebookSource(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d: job %d differs:\nstream: %+v\n slice: %+v",
						seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: traces differ in length: %d vs %d", seed, len(got), len(want))
		}
	}
}

// TestFacebookSourceExhausts pins that a drained source keeps returning
// ok=false instead of wrapping around.
func TestFacebookSourceExhausts(t *testing.T) {
	cfg := DefaultFacebookConfig()
	cfg.Jobs = 5
	cfg.Seed = 1
	src, err := NewFacebookSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Jobs; i++ {
		if _, ok, err := src.Next(); !ok || err != nil {
			t.Fatalf("item %d: ok=%v err=%v", i, ok, err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, ok, _ := src.Next(); ok {
			t.Fatal("drained source yielded another item")
		}
	}
}

// TestCSVSourceMatchesReadCSV round-trips a trace and pins that the chunked
// streaming reader reproduces the materialized parse exactly.
func TestCSVSourceMatchesReadCSV(t *testing.T) {
	cfg := DefaultFacebookConfig()
	cfg.Jobs = 500
	cfg.Seed = 2
	specs, err := Facebook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, specs); err != nil {
		t.Fatal(err)
	}
	want, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewCSVSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("streaming CSV parse differs from materialized parse")
	}
}

// TestCSVSourceErrors pins the streaming reader's error surface: the same
// header and per-line failures ReadCSV reports, at the same line numbers.
func TestCSVSourceErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "trace: empty csv"},
		{"bad header", "id,arrival,size\n", "trace: header has 3 columns, want 5"},
		{"wrong column", "id,arrival,size,width,prio\n", `trace: header column 4 is "prio", want "priority"`},
		{"bad id", "id,arrival,size,width,priority\nx,0,1,1,1\n", `trace: line 2: bad id "x"`},
		{"bad size", "id,arrival,size,width,priority\n1,0,zap,1,1\n", `trace: line 2: bad size "zap"`},
		{"invalid spec", "id,arrival,size,width,priority\n1,0,-4,1,1\n", "trace: line 2: size -4 out of range"},
		{"late error", "id,arrival,size,width,priority\n1,0,1,1,1\n2,0,1,1,0\n", "trace: line 3: priority 0 out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, err := NewCSVSource(strings.NewReader(tc.in))
			if err == nil {
				_, err = Collect(src)
			}
			if err == nil || err.Error() != tc.want {
				t.Fatalf("got error %v, want %q", err, tc.want)
			}
			if _, rerr := ReadCSV(strings.NewReader(tc.in)); rerr == nil {
				t.Fatal("ReadCSV accepted input the streaming reader rejects")
			}
		})
	}
}

// TestFacebookSourceSkipMatchesNext: a Facebook source driven through a
// random interleaving of Skip and Next yields at every Next the job, field
// for field, that the Next-only sequence has at that position; Skip past the
// end reports false. The configurations cover an all-body and an all-tail
// trace besides the default, and a tail whose bounds leave it one value
// (MaxSize below MeanSize), which draws no random number.
func TestFacebookSourceSkipMatchesNext(t *testing.T) {
	for _, c := range []struct{ tail, max float64 }{{0, 1e4}, {0.05, 1e4}, {1, 1e4}, {0.5, 15}} {
		tail := c.tail
		for _, seed := range []int64{1, 2, 3, 4} {
			cfg := DefaultFacebookConfig()
			cfg.Jobs = 1500
			cfg.Seed = seed
			cfg.TailFraction = tail
			cfg.MaxSize = c.max
			want, err := Facebook(cfg)
			if err != nil {
				t.Fatal(err)
			}
			src, err := NewFacebookSource(cfg)
			if err != nil {
				t.Fatal(err)
			}
			skip := src.(interface{ Skip() (bool, error) })
			pick := rand.New(rand.NewSource(seed))
			for i := range want {
				if pick.Intn(3) == 0 {
					if ok, err := skip.Skip(); !ok || err != nil {
						t.Fatalf("tail %v seed %d: Skip at %d = %v, %v", tail, seed, i, ok, err)
					}
					continue
				}
				got, ok, err := src.Next()
				if !ok || err != nil || got != want[i] {
					t.Fatalf("tail %v seed %d: job %d = %+v (%v, %v), want %+v", tail, seed, i, got, ok, err, want[i])
				}
			}
			for i := 0; i < 2; i++ {
				if ok, err := skip.Skip(); ok || err != nil {
					t.Fatalf("tail %v seed %d: Skip past the end = %v, %v", tail, seed, ok, err)
				}
				if _, ok, err := src.Next(); ok || err != nil {
					t.Fatalf("tail %v seed %d: Next past the end = %v, %v", tail, seed, ok, err)
				}
			}
		}
	}
}

// TestStridedFacebookNextAllocatesNothing: a shard's strided Facebook stream,
// passing over the other shards' jobs, allocates nothing per job.
func TestStridedFacebookNextAllocatesNothing(t *testing.T) {
	cfg := DefaultFacebookConfig()
	cfg.Jobs = 100000
	cfg.Seed = 1
	src, err := NewFacebookSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := substrate.Strided(src, 3, 8)
	if _, _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok, err := s.Next(); !ok || err != nil {
			t.Fatalf("Next = %v, %v", ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("Strided.Next allocates %v objects per job, want 0", allocs)
	}
}
