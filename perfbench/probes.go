package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"dsm96/internal/memsys"
	"dsm96/internal/network"
	"dsm96/internal/params"
	"dsm96/internal/sim"
	"dsm96/internal/stats"
)

// runProbes measures three layers in isolation, each driven only through
// its public constructors, at a fixed operation count. Their inputs are
// fixed, so the op counts repeat exactly from run to run.
func runProbes(rep *report, sc scale) {
	ns, ops, err := probeHandoff(sc.probeOps)
	rep.op(err)
	rep.set("sim.handoff_ns", ns)
	rep.set("sim.handoff_probe_ops", float64(ops))

	ns, ops, err = probeSend(16, sc.probeOps)
	rep.op(err)
	rep.set("network.send_ns", ns)
	rep.set("network.send_probe_ops", float64(ops))

	ns, ops, err = probeSend(256, sc.probeOps)
	rep.op(err)
	rep.set("network.send_ns_256", ns)
	rep.set("network.send_probe_ops_256", float64(ops))

	ns, ops, err = probeRead(sc.probeOps)
	rep.op(err)
	rep.set("memsys.read_ns", ns)
	rep.set("memsys.read_probe_ops", float64(ops))
	fmt.Printf("probes: handoff %.0f ns, send@16 %.0f ns, send@256 %.0f ns, memsys read %.0f ns\n",
		rep.metrics["sim.handoff_ns"], rep.metrics["network.send_ns"], rep.metrics["network.send_ns_256"], rep.metrics["memsys.read_ns"])
}

// probeHandoff runs processes that sleep co-prime intervals, so most
// wakes are not the very next event and each costs an engine<->process
// handoff. It returns wall ns per handoff and the handoff count.
func probeHandoff(sleeps int) (float64, uint64, error) {
	eng := sim.NewEngine()
	intervals := []sim.Time{3, 5, 7, 11}
	for i, d := range intervals {
		eng.NewProc(i, fmt.Sprintf("sleeper%d", i), 0, func(p *sim.Proc) {
			for k := 0; k < sleeps/len(intervals); k++ {
				p.Sleep(d)
			}
		})
	}
	t := time.Now()
	err := eng.Run()
	wall := time.Since(t)
	handoffs := uint64(intField(reflect.ValueOf(eng.Stats()), "Handoffs"))
	if err == nil && handoffs == 0 {
		err = fmt.Errorf("handoff probe: the engine reports no handoffs")
	}
	if err != nil {
		return 0, 0, fmt.Errorf("handoff probe: %w", err)
	}
	return float64(wall.Nanoseconds()) / float64(handoffs), handoffs, nil
}

// probeSend injects random-pair 64-byte messages from engine events, in
// batches of 64 every 2000 cycles, and checks every one is delivered. It
// returns wall ns per message and the message count.
func probeSend(nodes, msgs int) (float64, uint64, error) {
	cfg := params.Mesh(nodes)
	eng := sim.NewEngine()
	nw := network.New(&cfg, eng, nodes)
	rng := rand.New(rand.NewSource(16))
	const batch = 64
	var sent, delivered uint64
	var tick func()
	tick = func() {
		for i := 0; i < batch; i++ {
			nw.Send(rng.Intn(nodes), rng.Intn(nodes), 64, cfg.MessagingOverhead, func() { delivered++ })
			sent++
		}
		if sent < uint64(msgs) {
			eng.After(2000, tick)
		}
	}
	eng.At(0, tick)
	t := time.Now()
	err := eng.Run()
	wall := time.Since(t)
	if err == nil && (delivered != sent || nw.Messages() != sent) {
		err = fmt.Errorf("sent %d, network counted %d, delivered %d", sent, nw.Messages(), delivered)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("send probe: %w", err)
	}
	return float64(wall.Nanoseconds()) / float64(sent), sent, nil
}

// probeRead issues shared reads from one processor over a 512 KB working
// set (four times the cache, within TLB reach), so both cache hits and
// misses occur. It returns wall ns per read and the read count.
func probeRead(reads int) (float64, uint64, error) {
	cfg := params.Default()
	eng := sim.NewEngine()
	node := memsys.NewNode(0, &cfg, eng)
	var st stats.ProcStats
	rng := rand.New(rand.NewSource(32))
	const words = 512 * 1024 / 4
	eng.NewProc(0, "reader", 0, func(p *sim.Proc) {
		for i := 0; i < reads; i++ {
			node.Read(p, memsys.Addr(rng.Intn(words)*4), &st)
		}
	})
	t := time.Now()
	err := eng.Run()
	wall := time.Since(t)
	if err == nil && st.SharedReads != uint64(reads) {
		err = fmt.Errorf("issued %d reads, memory system counted %d", reads, st.SharedReads)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("read probe: %w", err)
	}
	return float64(wall.Nanoseconds()) / float64(reads), st.SharedReads, nil
}
