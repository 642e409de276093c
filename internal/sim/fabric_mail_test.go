package sim

import (
	"fmt"
	"strings"
	"testing"
)

// tieSend describes one cross-shard send in the tie-break tests: the source
// shard index, the instant the sender transmits, an extra delay on top of the
// edge lookahead, and a label the receiver logs at delivery.
type tieSend struct {
	src   int
	send  Time
	extra Time
	label string
}

// runTieBreak executes the sends against a star of source shards around one
// hub and returns the labels in the order the hub executed them.
func runTieBreak(t *testing.T, sources, workers int, sends []tieSend) []string {
	t.Helper()
	const lookahead = 5 * Microsecond
	f := NewFabric(workers)
	hub := f.AddShard("hub", 1)
	srcs := make([]*Shard, sources)
	for i := range srcs {
		srcs[i] = f.AddShard(fmt.Sprintf("src%d", i), 1)
		f.Connect(srcs[i], hub, lookahead)
	}
	var got []string
	for i := range srcs {
		i := i
		var mine []tieSend
		for _, sd := range sends {
			if sd.src == i {
				mine = append(mine, sd)
			}
		}
		if len(mine) == 0 {
			continue
		}
		srcs[i].Engine().Spawn("sender", func(p *Process) {
			for _, sd := range mine {
				sd := sd
				if sd.send > p.Now() {
					p.Sleep(sd.send - p.Now())
				}
				srcs[i].Send(p, hub, lookahead+sd.extra, "tie", func(mp *Process) {
					got = append(got, fmt.Sprintf("%s@%d", sd.label, mp.Now()))
				})
			}
		})
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

// expectTieOrder computes the canonical delivery order: by arrival time, then
// source shard index, then per-source send order (the sequence number).
func expectTieOrder(sends []tieSend) []string {
	const lookahead = 5 * Microsecond
	type key struct {
		at  Time
		src int
		seq int
	}
	seqs := map[int]int{}
	keyed := make([]struct {
		k     key
		label string
	}, len(sends))
	for i, sd := range sends {
		seqs[sd.src]++
		keyed[i].k = key{at: sd.send + lookahead + sd.extra, src: sd.src, seq: seqs[sd.src]}
		keyed[i].label = fmt.Sprintf("%s@%d", sd.label, keyed[i].k.at)
	}
	for i := range keyed {
		for j := i + 1; j < len(keyed); j++ {
			a, b := keyed[i].k, keyed[j].k
			if b.at < a.at || (b.at == a.at && (b.src < a.src || (b.src == a.src && b.seq < a.seq))) {
				keyed[i], keyed[j] = keyed[j], keyed[i]
			}
		}
	}
	out := make([]string, len(keyed))
	for i := range keyed {
		out[i] = keyed[i].label
	}
	return out
}

// TestFabricMailTieBreakOrder pins the canonical delivery order for
// equal-timestamp mail from different source shards: (time, src, seq), with
// the per-source sequence preserving each sender's own send order.
func TestFabricMailTieBreakOrder(t *testing.T) {
	const tick = Microsecond
	cases := []struct {
		name    string
		sources int
		sends   []tieSend
	}{
		{
			name:    "simultaneous-across-sources",
			sources: 4,
			sends: []tieSend{
				{src: 3, send: 10 * tick, label: "d"},
				{src: 1, send: 10 * tick, label: "b"},
				{src: 0, send: 10 * tick, label: "a"},
				{src: 2, send: 10 * tick, label: "c"},
			},
		},
		{
			name:    "sequence-within-source",
			sources: 2,
			sends: []tieSend{
				{src: 0, send: 10 * tick, extra: 2 * tick, label: "a1"},
				{src: 0, send: 12 * tick, label: "a2"}, // same arrival as a1, later seq
				{src: 1, send: 12 * tick, label: "b1"},
			},
		},
		{
			name:    "time-beats-source",
			sources: 3,
			sends: []tieSend{
				{src: 2, send: 8 * tick, label: "late-src-early-mail"},
				{src: 0, send: 10 * tick, label: "x"},
				{src: 1, send: 10 * tick, label: "y"},
			},
		},
		{
			name:    "interleaved-bursts",
			sources: 3,
			sends: []tieSend{
				{src: 1, send: 5 * tick, label: "b1"},
				{src: 1, send: 5 * tick, label: "b2"},
				{src: 0, send: 5 * tick, label: "a1"},
				{src: 2, send: 5 * tick, label: "c1"},
				{src: 0, send: 9 * tick, label: "a2"},
				{src: 2, send: 5 * tick, extra: 4 * tick, label: "c2"}, // ties with a2
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := expectTieOrder(tc.sends)
			for _, workers := range []int{1, 2, 4} {
				got := runTieBreak(t, tc.sources, workers, tc.sends)
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("workers=%d: delivery order\n got %v\nwant %v", workers, got, want)
				}
			}
		})
	}
}

// FuzzFabricMailTieBreak generates random bursts of simultaneous cross-shard
// sends and checks the delivered order against the canonical (time, src, seq)
// sort at one and at four workers.
func FuzzFabricMailTieBreak(f *testing.F) {
	f.Add(uint64(1), 3, 8)
	f.Add(uint64(42), 5, 16)
	f.Add(uint64(0xdecaf), 2, 12)
	// The satellite seed: every source fires at the same instant, so every
	// arrival ties and only (src, seq) decides.
	f.Add(uint64(7777), 4, 4)
	f.Fuzz(func(t *testing.T, seed uint64, sources, mails int) {
		if sources < 0 {
			sources = -sources
		}
		if mails < 0 {
			mails = -mails
		}
		sources = 2 + sources%6
		mails = 1 + mails%24
		rng := NewRNG(seed)
		sends := make([]tieSend, 0, mails)
		// Quantized send times and a small extra-delay range make
		// equal-arrival collisions the common case, not the exception.
		last := make([]Time, sources)
		for i := 0; i < mails; i++ {
			src := rng.Intn(sources)
			at := last[src] + Time(rng.Intn(3))*5*Microsecond
			last[src] = at
			sends = append(sends, tieSend{
				src:   src,
				send:  at,
				extra: Time(rng.Intn(2)) * 5 * Microsecond,
				label: fmt.Sprintf("m%d", i),
			})
		}
		want := strings.Join(expectTieOrder(sends), " ")
		for _, workers := range []int{1, 4} {
			got := strings.Join(runTieBreak(t, sources, workers, sends), " ")
			if got != want {
				t.Fatalf("workers=%d: delivery order\n got %s\nwant %s", workers, got, want)
			}
		}
	})
}
