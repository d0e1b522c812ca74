package netstack

import (
	"testing"
	"testing/quick"

	"softtimers/internal/sim"
)

type sinkEP struct {
	got []*Packet
	at  []sim.Time
	eng *sim.Engine
}

func (s *sinkEP) Deliver(p *Packet) {
	s.got = append(s.got, p)
	s.at = append(s.at, s.eng.Now())
}

func TestLinkTransmissionTime(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &sinkEP{eng: eng}
	// 100 Mbps: a 1500-byte packet serializes in 120us — the number the
	// paper quotes for Fast Ethernet.
	l := NewLink(eng, "lan", 100_000_000, 0, sink)
	if got := l.TxTime(1500); got != 120*sim.Microsecond {
		t.Fatalf("TxTime(1500) = %v, want 120us", got)
	}
	// 1 Gbps: 12us per packet.
	g := NewLink(eng, "gig", 1_000_000_000, 0, sink)
	if got := g.TxTime(1500); got != 12*sim.Microsecond {
		t.Fatalf("gig TxTime = %v, want 12us", got)
	}
}

func TestLinkDeliversAfterTxPlusDelay(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &sinkEP{eng: eng}
	l := NewLink(eng, "l", 100_000_000, 50*sim.Millisecond, sink)
	l.Send(&Packet{Size: 1500})
	eng.Run()
	if len(sink.got) != 1 {
		t.Fatal("packet not delivered")
	}
	want := 120*sim.Microsecond + 50*sim.Millisecond
	if sink.at[0] != want {
		t.Fatalf("delivered at %v, want %v", sink.at[0], want)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &sinkEP{eng: eng}
	l := NewLink(eng, "l", 100_000_000, 0, sink)
	for i := 0; i < 3; i++ {
		l.Send(&Packet{Size: 1500, Seq: int64(i)})
	}
	eng.Run()
	if len(sink.got) != 3 {
		t.Fatalf("delivered %d", len(sink.got))
	}
	for i, at := range sink.at {
		want := sim.Time(i+1) * 120 * sim.Microsecond
		if at != want {
			t.Fatalf("packet %d at %v, want %v", i, at, want)
		}
		if sink.got[i].Seq != int64(i) {
			t.Fatal("reordered")
		}
	}
	if l.MaxQueued != 3 {
		t.Fatalf("MaxQueued = %d, want 3", l.MaxQueued)
	}
}

func TestLinkQueueLimitDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &sinkEP{eng: eng}
	l := NewLink(eng, "l", 100_000_000, 0, sink)
	l.MaxQueue = 2
	ok1 := l.Send(&Packet{Size: 1500})
	ok2 := l.Send(&Packet{Size: 1500})
	ok3 := l.Send(&Packet{Size: 1500})
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("sends = %v %v %v, want third dropped", ok1, ok2, ok3)
	}
	if l.Dropped != 1 {
		t.Fatalf("Dropped = %d", l.Dropped)
	}
	eng.Run()
	if len(sink.got) != 2 {
		t.Fatalf("delivered %d, want 2", len(sink.got))
	}
}

func TestLinkIdleGapRestartsClock(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &sinkEP{eng: eng}
	l := NewLink(eng, "l", 100_000_000, 0, sink)
	l.Send(&Packet{Size: 1500})
	eng.RunUntil(sim.Millisecond)
	l.Send(&Packet{Size: 1500})
	eng.Run()
	if sink.at[1] != sim.Millisecond+120*sim.Microsecond {
		t.Fatalf("second delivery at %v", sink.at[1])
	}
}

func TestPathChaining(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &sinkEP{eng: eng}
	// access (100Mbps, 30us) -> bottleneck (50Mbps, 50ms) -> sink
	bott := NewLink(eng, "wan", 50_000_000, 50*sim.Millisecond, sink)
	access := NewLink(eng, "lan", 100_000_000, 30*sim.Microsecond, bott)
	path := NewPath(access, bott)
	path.Send(&Packet{Size: 1500})
	eng.Run()
	want := 120*sim.Microsecond + 30*sim.Microsecond + 240*sim.Microsecond + 50*sim.Millisecond
	if sink.at[0] != want {
		t.Fatalf("delivered at %v, want %v", sink.at[0], want)
	}
}

func TestBottleneckPacesFasterUpstream(t *testing.T) {
	// Packets blasted at 100Mbps into a 50Mbps bottleneck must exit
	// spaced at the bottleneck rate (240us for 1500B).
	eng := sim.NewEngine(1)
	sink := &sinkEP{eng: eng}
	bott := NewLink(eng, "wan", 50_000_000, 0, sink)
	access := NewLink(eng, "lan", 100_000_000, 0, bott)
	for i := 0; i < 10; i++ {
		access.Send(&Packet{Size: 1500})
	}
	eng.Run()
	for i := 1; i < len(sink.at); i++ {
		gap := sink.at[i] - sink.at[i-1]
		if gap != 240*sim.Microsecond {
			t.Fatalf("exit gap %d = %v, want 240us", i, gap)
		}
	}
}

func TestWANEmulatorRTT(t *testing.T) {
	eng := sim.NewEngine(1)
	var wan *WANEmulator
	var echoAt, backAt sim.Time
	// b echoes the first packet back to a.
	b := EndpointFunc(func(p *Packet) {
		echoAt = eng.Now()
		wan.BtoA.Send(&Packet{Size: 1500})
	})
	a := EndpointFunc(func(p *Packet) { backAt = eng.Now() })
	wan = NewWANEmulator(eng, 100_000_000, 100_000_000, 100*sim.Millisecond, a, b)
	wan.AtoB.Send(&Packet{Size: 1500})
	eng.Run()
	if echoAt == 0 || backAt == 0 {
		t.Fatal("round trip incomplete")
	}
	// RTT must be ~100ms plus serialization on four links.
	rtt := backAt
	if rtt < 100*sim.Millisecond || rtt > 101*sim.Millisecond {
		t.Fatalf("rtt = %v, want ~100ms", rtt)
	}
}

func TestKindString(t *testing.T) {
	if Data.String() != "data" || Ack.String() != "ack" || Kind(99).String() != "unknown" {
		t.Fatal("kind names wrong")
	}
}

func TestLinkValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	for _, fn := range []func(){
		func() { NewLink(eng, "x", 0, 0, EndpointFunc(func(*Packet) {})) },
		func() { NewLink(eng, "x", 100, 0, nil) },
		func() { NewPath() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad construction did not panic")
				}
			}()
			fn()
		}()
	}
}

// Property: FIFO per link — for any sequence of sizes, packets exit in the
// order sent, and total bytes are conserved.
func TestPropertyLinkFIFO(t *testing.T) {
	f := func(sizes []uint16) bool {
		eng := sim.NewEngine(3)
		sink := &sinkEP{eng: eng}
		l := NewLink(eng, "l", 10_000_000, sim.Millisecond, sink)
		var want int64
		for i, s := range sizes {
			size := int(s%3000) + 40
			want += int64(size)
			l.Send(&Packet{Size: size, Seq: int64(i)})
		}
		eng.Run()
		if len(sink.got) != len(sizes) {
			return false
		}
		var got int64
		for i, p := range sink.got {
			if p.Seq != int64(i) {
				return false
			}
			got += int64(p.Size)
		}
		return got == want && got == l.Bytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
