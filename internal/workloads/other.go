package workloads

import (
	"softtimers/internal/cpu"
	"softtimers/internal/host"
	"softtimers/internal/kernel"
	"softtimers/internal/sim"
)

// newBareRig builds a kernel+facility rig with no network testbed.
func newBareRig(seed uint64, prof cpu.Profile) *Rig {
	eng := sim.NewEngine(seed + 1)
	h := host.New(eng, host.Config{Profile: prof, Kernel: kernel.Options{IdleLoop: true}})
	return &Rig{Eng: eng, K: h.K, F: h.F}
}

// makeRealAudio models the RealPlayer workload: a single process that
// saturates the CPU with user-mode audio processing punctuated by very
// frequent short system calls (reads from the network buffer, writes to
// the audio device), plus a low-rate inbound audio packet stream. The
// paper's Table 1: mean 8.47 µs, median 6 µs — dominated by the syscall
// cadence, not by interrupts.
func makeRealAudio(seed uint64, prof cpu.Profile) *Rig {
	r := newBareRig(seed, prof)
	rng := r.Eng.Rand().Fork()
	player := r.K.Spawn("realplayer", func(p *kernel.Proc) {
		// The continuations are built once, outside the loop.
		var loop func()
		refill := func() { p.Syscall("read", rng.ExpTime(sim.Micros(2.2)), loop) }
		decoded := func() {
			if rng.Bool(0.0008) {
				// Occasional longer decode burst (buffer refill, UI
				// work) — the distribution's tail.
				p.Compute(rng.ParetoTime(1.3, sim.Micros(150), sim.Micros(1800)), refill)
				return
			}
			p.Syscall("write", rng.ExpTime(sim.Micros(2.2)), loop)
		}
		loop = func() {
			// Decode a little, then touch the kernel: the RealPlayer
			// makes "many system calls" (Section 5.3).
			p.Compute(rng.ExpTime(sim.Micros(4.0)), decoded)
		}
		loop()
	})
	player.PollutionFactor = 1.0
	// Live audio stream: a packet every ~5 ms (a few hundred kbit/s).
	var audioPkt func()
	audioPkt = func() {
		r.K.RaiseInterrupt(kernel.SrcIPIntr, sim.Micros(4), nil)
		r.Eng.After(rng.ExpTime(5*sim.Millisecond), audioPkt)
	}
	r.Eng.After(sim.Millisecond, audioPkt)
	r.K.Start()
	return r
}

// makeNFS models the NFS fileserver workload: saturated but disk-bound,
// with the CPU idle about 90% of the time — so the 2 µs idle-loop poll
// dominates the trigger-interval distribution (Table 1: mean 2.13 µs,
// median 2 µs). A periodic syncer process contributes the rare long
// trigger gaps (Table 1's 910 µs max).
func makeNFS(seed uint64, prof cpu.Profile) *Rig {
	r := newBareRig(seed, prof)
	rng := r.Eng.Rand().Fork()

	var reqQ int
	var reqWQ kernel.WaitQueue
	// nfsd worker threads: take a request, process, wait for the disk,
	// reply (2 packets via the IP output path).
	for i := 0; i < 8; i++ {
		r.K.Spawn("nfsd", func(p *kernel.Proc) {
			var diskWQ kernel.WaitQueue
			var loop func()
			loop = func() {
				if reqQ == 0 {
					p.Sleep(&reqWQ, loop)
					return
				}
				reqQ--
				p.Syscall("nfs-rpc", rng.ExpTime(sim.Micros(35)), func() {
					// Disk read: sleep until the controller interrupts.
					r.Eng.After(rng.ExpTime(2500*sim.Microsecond), func() {
						r.K.RaiseInterrupt(kernel.SrcDisk, sim.Micros(5), func() {
							diskWQ.WakeOne()
						})
					})
					p.Sleep(&diskWQ, func() { p.Chain(nfsReply{}, loop) })
				})
			}
			loop()
		})
	}
	// Request arrivals: NFS RPCs over the network, Poisson ~400/s.
	var arrive func()
	arrive = func() {
		r.K.RaiseInterrupt(kernel.SrcIPIntr, sim.Micros(4), func() {
			reqQ++
			reqWQ.WakeOne()
		})
		r.Eng.After(rng.ExpTime(2500*sim.Microsecond), arrive)
	}
	r.Eng.After(100*sim.Microsecond, arrive)

	// The syncer flushes dirty buffers twice a second: a long kernel
	// stretch without trigger states.
	r.K.Spawn("syncer", func(p *kernel.Proc) {
		var sleepWQ kernel.WaitQueue
		var loop func()
		loop = func() {
			r.Eng.After(500*sim.Millisecond, func() { sleepWQ.WakeOne() })
			p.Sleep(&sleepWQ, func() {
				p.Compute(rng.NormTime(sim.Micros(820), sim.Micros(60), sim.Micros(500)), func() {
					p.Syscall("sync", sim.Micros(20), loop)
				})
			})
		}
		loop()
	})
	r.K.Start()
	return r
}

// nfsReply is an nfsd reply as a kernel.Chain: two packets through the IP
// output path, each a trigger state.
type nfsReply struct{}

func (nfsReply) Begin() int { return 2 }

func (nfsReply) Step(int) (sim.Time, kernel.Source) {
	return sim.Micros(8), kernel.SrcIPOutput
}

func (nfsReply) Run(int) {}

func (nfsReply) End() {}

// makeKernelBuild models building the FreeBSD kernel from source:
// compiler processes with heavy-tailed compute bursts (the 47.9 µs
// standard deviation and 1000 µs max of Table 1), bursts of file-access
// syscalls, page-fault traps, and disk waits that leave the CPU idle
// nearly half the time (the 2 µs median comes from idle polling).
func makeKernelBuild(seed uint64, prof cpu.Profile) *Rig {
	r := newBareRig(seed, prof)
	rng := r.Eng.Rand().Fork()
	// A sequential make: one compiler at a time, so disk waits actually
	// idle the CPU (the source of the idle-poll median).
	for i := 0; i < 1; i++ {
		r.K.Spawn("cc", func(p *kernel.Proc) {
			var diskWQ kernel.WaitQueue
			// The continuations are built once, outside the loop.
			var loop func()
			diskDone := func() { diskWQ.WakeOne() }
			diskIntr := func() { r.K.RaiseInterrupt(kernel.SrcDisk, sim.Micros(5), diskDone) }
			// The steady state interleaves short compute with file and
			// pipe syscalls and the occasional page fault; every so
			// often a heavy-tailed optimization pass runs uninterrupted
			// (the distribution's tail, bounded by hardclock at 1 ms),
			// and disk reads park the process, exposing the idle loop
			// (the 2 µs median).
			computed := func() {
				switch {
				case rng.Bool(0.018): // disk miss: sleep on I/O
					r.Eng.After(rng.ExpTime(700*sim.Microsecond), diskIntr)
					p.Sleep(&diskWQ, loop)
				case rng.Bool(0.025): // optimization pass
					p.Compute(rng.ParetoTime(1.25, sim.Micros(80), sim.Micros(950)), loop)
				case rng.Bool(0.10): // page fault
					p.Trap("pagefault", sim.Micros(9), loop)
				default:
					p.Syscall("read", rng.ExpTime(sim.Micros(8)), loop)
				}
			}
			loop = func() { p.Compute(rng.ExpTime(sim.Micros(14)), computed) }
			loop()
		})
	}
	r.K.Start()
	return r
}
