package routing

import (
	"fmt"
	"math/rand"

	"bfvlsi/internal/detrng"
)

// Stepwise simulation engine. Simulate and SimulatePattern run a whole
// configuration in one call; Sim exposes the same machinery one cycle
// at a time so callers can pause a run at a cycle boundary, export its
// complete state, and later restore and continue it elsewhere (see
// internal/snapshot). One cycle pipeline serves both buffer modes:
// BufferLimit 0 gives every directed link one unbounded FIFO,
// BufferLimit > 0 gives it numVC bounded virtual-channel FIFOs with
// credit-based backpressure.
//
// Virtual channels. A wrapped butterfly with dimension-order routing and
// finite buffers deadlocks - the column wrap closes a cyclic channel
// dependency, the textbook motivation for Dally-style virtual channels.
// The deterministic route traverses fewer than 2n links, so it crosses
// the column-(n-1) -> column-0 "dateline" at most twice; three virtual
// channels with the rule "increment VC at the dateline" therefore order
// the channel dependency graph by (vc, column) and make the network
// deadlock-free. One packet crosses each physical link per cycle,
// arbitration scanning from the highest VC down for a movable head.
// Unbounded buffers cannot deadlock and use a single channel.
//
// Two steps of the pipeline differ by mode, both because finite buffers
// need credits:
//   - With finite buffers a packet's next hop is decided when its link
//     grants the move, since the credit check needs the next queue;
//     with unbounded buffers it is decided on arrival, after every link
//     of the cycle has reported to the adaptive router.
//   - With finite buffers the head sweep (TTL expiry, give-up
//     write-offs) runs before re-planning, so the slots it frees count
//     for re-planning and for the cycle's credits; with unbounded
//     buffers it runs after re-planning.
//
// The determinism contract extends to checkpointing: a run restored
// from a SimState is packet-for-packet (and trace-byte) identical to
// the uninterrupted run, provided the hooks (Faults, Reliable,
// Adaptive) are restored to their own mid-run state by the caller. All
// of the engine's randomness flows through one detrng.Source, so the
// RNG position is just a draw count.

// numVC is the number of virtual channels per link with finite buffers.
const numVC = 3

// Sim is one in-flight simulation. Create with NewSim or
// RestoreSim, advance with Step, and collect the result with Finish.
// A Sim must not be shared by concurrently running goroutines.
type Sim struct {
	p       Params
	pattern Pattern

	n, rows, nodes int
	total          int
	cycle          int
	// vcs is the number of virtual channels per link: numVC with finite
	// buffers, 1 without.
	vcs int

	src *detrng.Source
	rng *rand.Rand

	// queues[(node*2+out)*vcs + vc] is the FIFO of one virtual channel
	// of one directed link.
	queues []fifo[packet]
	// room is the finite-buffer mode's per-cycle credit scratch.
	room []int

	res       *Result
	latSum    float64
	hopSum    float64
	latCount  int
	crossings int64

	// Per-cycle scratch, hoisted: reset to length zero each cycle, the
	// backing array reaches its high-water capacity once and is reused.
	arrivals []arrival
}

// NewSim validates p and builds a simulation positioned before cycle 0,
// resetting the attached hooks and writing the trace header. Advance it
// with Step or Finish.
func NewSim(p Params, pattern Pattern) (*Sim, error) {
	s, err := buildSim(p, pattern)
	if err != nil {
		return nil, err
	}
	if p.Reliable != nil {
		p.Reliable.Reset(s.nodes)
	}
	if p.Adaptive != nil {
		p.Adaptive.Reset(s.n, s.rows)
	}
	if p.Trace != nil {
		if _, err := fmt.Fprintln(p.Trace, "cycle,injected,delivered,backlog"); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// buildSim validates p and allocates the engine without touching hooks
// or trace: the shared half of NewSim and RestoreSim.
func buildSim(p Params, pattern Pattern) (*Sim, error) {
	if p.N < 1 || p.N > 14 {
		return nil, fmt.Errorf("routing: dimension %d out of range [1,14]", p.N)
	}
	if p.Lambda < 0 || p.Lambda > 1 {
		return nil, fmt.Errorf("routing: lambda %v out of [0,1]", p.Lambda)
	}
	if p.Cycles <= 0 {
		return nil, fmt.Errorf("routing: need positive measured cycles")
	}
	if p.Warmup < 0 {
		return nil, fmt.Errorf("routing: negative warmup %d", p.Warmup)
	}
	if p.TTL < 0 {
		return nil, fmt.Errorf("routing: negative TTL %d", p.TTL)
	}
	if p.BufferLimit < 0 {
		return nil, fmt.Errorf("routing: negative buffer limit %d", p.BufferLimit)
	}
	n := p.N
	rows := 1 << uint(n)
	nodes := n * rows
	if p.ModuleOf != nil && len(p.ModuleOf) != nodes {
		return nil, fmt.Errorf("routing: ModuleOf has %d entries, want %d", len(p.ModuleOf), nodes)
	}
	s := &Sim{
		p: p, pattern: pattern,
		n: n, rows: rows, nodes: nodes,
		total: p.Warmup + p.Cycles,
		vcs:   1,
		src:   detrng.New(p.Seed),
		res:   &Result{Nodes: nodes},
	}
	s.rng = rand.New(s.src)
	// 16 slots of head-start capacity per unbounded queue keeps
	// steady-state growth (and its allocations) out of the measured hot
	// loop at moderate loads. Credit backpressure bounds every finite
	// queue at BufferLimit slots, so preallocating exactly that much
	// means no queue ever grows - the hot loop cannot allocate through a
	// push.
	capEach := 16
	if p.BufferLimit > 0 {
		s.vcs = numVC
		capEach = p.BufferLimit
		s.room = make([]int, nodes*2*numVC)
	}
	s.queues = newFifos[packet](nodes*2*s.vcs, capEach)
	s.arrivals = make([]arrival, 0, 2*nodes)
	return s, nil
}

// Cycle returns the next cycle Step will simulate (0-based, warmup
// included): the number of completed cycles so far.
func (s *Sim) Cycle() int { return s.cycle }

// Total returns the run length, warmup plus measured cycles.
func (s *Sim) Total() int { return s.total }

// Done reports whether every cycle has been simulated.
func (s *Sim) Done() bool { return s.cycle >= s.total }

// Step simulates one cycle. It returns an error only for trace write
// failures, pattern errors, or stepping past the end of the run.
func (s *Sim) Step() error {
	if s.Done() {
		return fmt.Errorf("routing: step past the end of the %d-cycle run", s.total)
	}
	if err := s.step(); err != nil {
		return err
	}
	s.cycle++
	return nil
}

// Finish simulates the remaining cycles and returns the final Result.
// The Sim itself is left at the end of the run; Finish is idempotent
// once the run completes.
func (s *Sim) Finish() (*Result, error) {
	for !s.Done() {
		if err := s.Step(); err != nil {
			return nil, err
		}
	}
	res := *s.res
	for qi := range s.queues {
		l := s.queues[qi].len()
		res.Backlog += l
		if l > res.MaxQueue {
			res.MaxQueue = l
		}
	}
	res.Throughput = float64(res.Delivered) / float64(res.Nodes) / float64(s.p.Cycles)
	if s.latCount > 0 {
		res.AvgLatency = s.latSum / float64(s.latCount)
		res.AvgHops = s.hopSum / float64(s.latCount)
	}
	res.BoundaryCrossingsPerCycle = float64(s.crossings) / float64(s.p.Cycles)
	return &res, nil
}

// backlog returns the total number of queued packets.
func (s *Sim) backlog() int {
	total := 0
	for qi := range s.queues {
		total += s.queues[qi].len()
	}
	return total
}

// qidx returns the queue of virtual channel vc on output out of node.
func (s *Sim) qidx(node, out, vc int) int { return (node*2+out)*s.vcs + vc }

// full reports whether queue q has no free slot; unbounded queues never
// fill.
func (s *Sim) full(q int) bool {
	return s.p.BufferLimit > 0 && s.queues[q].len() >= s.p.BufferLimit
}

// step simulates one cycle: hook clocks, injection, retransmission,
// head sweep and re-planning, link traversal, arrival.
func (s *Sim) step() error {
	p := &s.p
	measured := s.cycle >= p.Warmup
	finite := p.BufferLimit > 0
	if p.Faults != nil {
		p.Faults.BeginCycle(s.cycle)
	}
	if p.Reliable != nil {
		p.Reliable.BeginCycle(s.cycle)
	}
	if p.Adaptive != nil {
		p.Adaptive.BeginCycle(s.cycle)
		runProbes(p.Adaptive, p.Faults)
	}
	if err := s.inject(measured); err != nil {
		return err
	}
	if p.Reliable != nil {
		s.retransmit()
	}
	if finite {
		s.sweepHeads()
	}
	if p.Adaptive != nil {
		s.replan()
	}
	if !finite {
		s.sweepHeads()
	}
	s.traverse(measured)
	s.arrive(measured)
	if p.Trace != nil && measured {
		if _, err := fmt.Fprintf(p.Trace, "%d,%d,%d,%d\n",
			s.cycle-p.Warmup, s.res.Injected, s.res.Delivered, s.backlog()); err != nil {
			return err
		}
	}
	return nil
}

// inject offers every live node one packet with probability Lambda, in
// node order. A packet whose entry queue is full is refused and counted
// in InjectionDrops only; every other offer counts as injected.
func (s *Sim) inject(measured bool) error {
	p, res := &s.p, s.res
	n, rows := s.n, s.rows
	for row := 0; row < rows; row++ {
		for col := 0; col < n; col++ {
			src := col*rows + row
			if p.Faults != nil && p.Faults.NodeDown(src) {
				continue // dead nodes do not inject
			}
			if s.rng.Float64() >= p.Lambda {
				continue
			}
			dr, dc, err := destFor(s.pattern, n, rows, row, col, s.rng)
			if err != nil {
				return err
			}
			dst := dc*rows + dr
			if dst == src {
				// Delivered in place: no copy enters the network, so
				// no duplicate can ever exist and the payload needs
				// no reliable-transport state.
				res.TotalDelivered++
				if measured {
					res.Delivered++
				}
			} else if refused, learned := s.unreachable(dst); refused {
				if !learned && p.Reliable != nil {
					// The source cannot see the oracle fault state: the
					// payload is registered and its retries burn budget
					// against the void until it is abandoned. A refusal
					// learned from the router's own map happens before
					// any transport state exists.
					p.Reliable.Register(s.cycle, src, dst)
				}
			} else {
				pk := packet{dstRow: dr, dstCol: dc, born: s.cycle, blocked: -1}
				if p.Reliable != nil {
					// Registered before the buffer check: a refused
					// injection leaves no copy in the network but stays
					// pending, so the transport's timer recovers it.
					pk.rid = p.Reliable.Register(s.cycle, src, dst)
				}
				if !s.enter(pk, src) {
					if measured {
						res.InjectionDrops++
					}
					continue
				}
			}
			res.TotalInjected++
			if measured {
				res.Injected++
			}
		}
	}
	return nil
}

// retransmit re-enters the copies due this cycle at their sources,
// after fresh traffic (fresh injections keep priority). A copy whose
// source is dead or whose entry queue is full is deferred to the next
// cycle without consuming a retry.
func (s *Sim) retransmit() {
	p := &s.p
	for _, c := range p.Reliable.Retransmissions(s.cycle) {
		if p.Faults != nil && p.Faults.NodeDown(c.Src) {
			p.Reliable.Deferred(c.ID) // dead sources cannot resend
			continue
		}
		if refused, _ := s.unreachable(c.Dst); !refused {
			pk := packet{dstRow: c.Dst % s.rows, dstCol: c.Dst / s.rows, born: s.cycle, rid: c.ID, blocked: -1}
			if !s.enter(pk, c.Src) {
				p.Reliable.Deferred(c.ID)
				continue
			}
		}
		p.Reliable.Emitted(c.ID, s.cycle)
		s.res.Retransmitted++
	}
}

// unreachable refuses a packet addressed to dst that can never arrive,
// counting it in Unreachable under its cause: the adaptive router's
// disseminated map condemns dst (learned), dst is dead, or every link
// into dst is dead. The last two read the oracle fault state; without
// the check the packet could only wander until its TTL - or, with
// TTL 0, forever.
func (s *Sim) unreachable(dst int) (refused, learned bool) {
	p, res := &s.p, s.res
	switch {
	case p.Adaptive != nil && p.Adaptive.RejectDest(dst):
		res.UnreachableDetected++
		learned = true
	case p.Faults != nil && p.Faults.NodeDown(dst):
		res.UnreachableDead++
	case destCut(p.Faults, s.n, s.rows, dst%s.rows, dst/s.rows):
		res.UnreachableCut++
	default:
		return false, false
	}
	res.Unreachable++
	return true, learned
}

// enter routes a packet entering the network at node src and queues it
// on virtual channel 0. It reports false, changing nothing, when that
// queue is full. A packet the DropDead policy discards has entered and
// is counted as Dropped.
func (s *Sim) enter(pk packet, src int) bool {
	out, drop, mis, det := route(&pk, src%s.rows, src/s.rows, s.rows, &s.p)
	if drop {
		s.res.Dropped++
		return true
	}
	q := s.qidx(src, out, 0)
	if s.full(q) {
		return false
	}
	s.countDetours(mis, det)
	s.queues[q].push(pk)
	return true
}

// countDetours records a hop that left the planned route.
func (s *Sim) countDetours(mis, det bool) {
	if mis {
		s.res.Misroutes++
	}
	if det {
		s.res.Detours++
	}
}

// sweepHeads discards dead queue heads: copies whose payload the source
// has given up on (GaveUp) and copies older than the TTL (Dropped).
func (s *Sim) sweepHeads() {
	p, res := &s.p, s.res
	if p.TTL == 0 && p.Reliable == nil {
		return
	}
	for qi := range s.queues {
		q := &s.queues[qi]
		for q.len() > 0 {
			head := q.front()
			if p.Reliable != nil && p.Reliable.Abandoned(head.rid) {
				q.pop()
				res.GaveUp++
				continue
			}
			if p.TTL > 0 && s.cycle-head.born >= p.TTL {
				q.pop()
				res.Dropped++
				continue
			}
			break
		}
	}
}

// replan lets the adaptive router re-examine the head of every queue: a
// head whose link the router has since condemned moves to the node's
// other output, on the same virtual channel (the dateline ordering is
// untouched), if that queue has a free slot. Only heads move: packets
// behind them follow on later cycles if the condemnation persists.
// Choose is deterministic within a cycle, so a moved head re-examined
// at its new queue re-chooses the same output - no ping-pong.
func (s *Sim) replan() {
	p, res, rows := &s.p, s.res, s.rows
	for node := 0; node < s.nodes; node++ {
		row, col := node%rows, node/rows
		for out := 0; out < 2; out++ {
			for vc := 0; vc < s.vcs; vc++ {
				q := s.qidx(node, out, vc)
				if s.queues[q].len() == 0 {
					continue
				}
				pk := s.queues[q].front()
				d := p.Adaptive.Choose(pk.hop(row, col, rows))
				if d.Out == out {
					continue
				}
				nq := s.qidx(node, d.Out, vc)
				if s.full(nq) {
					continue // no slot: stay and retry next cycle
				}
				pk.follow(d)
				if d.Detour {
					res.Detours++
				}
				res.Reroutes++
				s.queues[q].pop()
				s.queues[nq].push(pk)
			}
		}
	}
}

// traverse moves at most one packet across every live directed link.
// Moves are buffered in s.arrivals and enqueued after all links have
// moved (synchronous step). With finite buffers every move needs a
// credit in its next queue; credits are computed from start-of-phase
// occupancy (conservative) and consumed as moves are granted.
func (s *Sim) traverse(measured bool) {
	p, res := &s.p, s.res
	n, rows, vcs := s.n, s.rows, s.vcs
	queues, room := s.queues, s.room
	finite := p.BufferLimit > 0
	if finite {
		for i := range queues {
			room[i] = p.BufferLimit - queues[i].len()
		}
	}
	arrivals := s.arrivals[:0]
	//bflint:hotpath
	for row := 0; row < rows; row++ {
		for col := 0; col < n; col++ {
			node := col*rows + row
			nextCol := (col + 1) % n
			for out := 0; out < 2; out++ {
				link := node*2 + out
				nr := row
				if out == 1 {
					nr = row ^ (1 << uint(col))
				}
				if p.Faults != nil && p.Faults.LinkDown(node, out) {
					// Dead link: nothing moves, no credits consumed.
					for vc := 0; vc < vcs; vc++ {
						if queues[link*vcs+vc].len() > 0 {
							if measured {
								res.Stalls++
							}
							if p.Adaptive != nil {
								p.Adaptive.ObserveFailure(link)
							}
							break
						}
					}
					continue
				}
				for vc := vcs - 1; vc >= 0; vc-- {
					q := link*vcs + vc
					if queues[q].len() == 0 {
						continue
					}
					a := arrival{pk: queues[q].front(), row: int32(nr), col: int32(nextCol)}
					a.delivered = a.pk.dstRow == nr && a.pk.dstCol == nextCol
					if nextCol == 0 && int(a.pk.vc) < vcs-1 {
						a.pk.vc++ // dateline crossing
					}
					if finite && !a.delivered {
						// The next hop is decided once, here, on the
						// scratch copy: if the credit check denies the
						// move the decision is discarded whole (Choose
						// is a pure read, so the discarded call left no
						// state behind), and the arrival drain reuses
						// it instead of deciding again. Packets dropped
						// on arrival consume no credit.
						out, drop, mis, det := route(&a.pk, nr, nextCol, rows, p)
						a.out, a.drop, a.mis, a.det = int8(out), drop, mis, det
						if !drop {
							nq := s.qidx(nextCol*rows+nr, int(a.out), int(a.pk.vc))
							if room[nq] <= 0 {
								if measured {
									res.Stalls++
								}
								continue
							}
							room[nq]--
						}
					}
					queues[q].pop()
					a.pk.hops++
					if p.Adaptive != nil {
						p.Adaptive.ObserveSuccess(link)
					}
					if p.ModuleOf != nil && measured && p.ModuleOf[node] != p.ModuleOf[nextCol*rows+nr] {
						s.crossings++
					}
					arrivals = append(arrivals, a)
					break
				}
			}
		}
	}
	s.arrivals = arrivals
}

// arrive drains the cycle's moves: packets at their destination are
// delivered, the rest are routed (unbounded buffers) or follow their
// grant-time decision (finite buffers) into their next queue.
func (s *Sim) arrive(measured bool) {
	p, res := &s.p, s.res
	queues, rows := s.queues, s.rows
	for i := range s.arrivals {
		a := &s.arrivals[i]
		if a.delivered {
			born := a.pk.born
			if p.Reliable != nil {
				v, born0 := p.Reliable.Arrive(s.cycle, a.pk.rid)
				switch v {
				case DeliverDuplicate:
					res.DuplicatesDropped++
					continue
				case DeliverGaveUp:
					res.GaveUp++
					continue
				}
				// End-to-end latency runs from the payload's first
				// injection, not this copy's emission.
				born = born0
			}
			res.TotalDelivered++
			if measured {
				res.Delivered++
				if born >= p.Warmup {
					s.latSum += float64(s.cycle - born + 1)
					s.hopSum += float64(a.pk.hops)
					s.latCount++
				}
			}
			continue
		}
		out, drop, mis, det := int(a.out), a.drop, a.mis, a.det
		if p.BufferLimit == 0 {
			out, drop, mis, det = route(&a.pk, int(a.row), int(a.col), rows, p)
		}
		if drop {
			res.Dropped++
			continue
		}
		s.countDetours(mis, det)
		queues[s.qidx(int(a.col)*rows+int(a.row), out, int(a.pk.vc))].push(a.pk)
	}
}
