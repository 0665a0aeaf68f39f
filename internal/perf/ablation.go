package perf

import (
	"fmt"
	"time"

	"amber/internal/core"
	"amber/internal/gaddr"
)

// ChainRow is one line of the forwarding-chain ablation (E8, §3.3): an
// object k hops down a forwarding chain, referenced twice from the origin.
type ChainRow struct {
	Hops int
	// FirstMsgs is the messages for the first reference (walks the chain).
	FirstMsgs int64
	// SecondMsgs is the messages for the second (served by the cache).
	SecondMsgs int64
	// FirstFwd/SecondFwd count forwarding hops actually taken inside the
	// cluster during each reference; the second should be zero once caches
	// are warm.
	FirstFwd  int64
	SecondFwd int64
	// FirstUpdates and FirstProbes split the rest of the first reference's
	// bill: the chain-update oneways the executor sends back along the chain,
	// and the health probes (a ping and a pong each) the forwarders send to
	// check their next hop is alive.
	FirstUpdates int64
	FirstProbes  int64
	// HintHits counts location-hint cache hits during the second reference
	// (the origin never hosted the object, so its knowledge lives in the
	// hint cache rather than a descriptor).
	HintHits   int64
	FirstTime  time.Duration
	SecondTime time.Duration
}

// sumNodeStat totals one counter across every node of the cluster.
func sumNodeStat(cl *core.Cluster, name string) int64 {
	var total int64
	for i := 0; i < cl.NumNodes(); i++ {
		total += cl.Node(i).Stats().Value(name)
	}
	return total
}

// sumRPCStat totals one rpc-endpoint counter across every node.
func sumRPCStat(cl *core.Cluster, name string) int64 {
	var total int64
	for i := 0; i < cl.NumNodes(); i++ {
		total += cl.Node(i).RPCStats().Value(name)
	}
	return total
}

// chainObj is a trivial target.
type chainObj struct{ N int }

// Touch is a minimal operation.
func (c *chainObj) Touch() int { c.N++; return c.N }

// ForwardingChains measures E8: the cost of locating an object through
// chains of increasing length, and the effect of chain caching (the second
// reference finds the object's last known location cached, §3.3).
func ForwardingChains(maxHops int) ([]ChainRow, error) {
	if maxHops < 1 {
		maxHops = 1
	}
	var rows []ChainRow
	for hops := 1; hops <= maxHops; hops++ {
		reg := core.NewRegistry()
		cl, err := core.NewCluster(core.ClusterConfig{
			Nodes: hops + 2, ProcsPerNode: 1, Registry: reg,
		})
		if err != nil {
			return nil, err
		}
		if err := cl.Register(&chainObj{}); err != nil {
			return nil, err
		}
		// Build a chain of length `hops`: the object starts on node 1 and
		// each move is instructed *by the node it is leaving*, so only that
		// node's descriptor is updated and the stale chain survives:
		// node 1 → node 2 → ... → node hops+1.
		ref, err := cl.Node(1).Root().New(&chainObj{})
		if err != nil {
			return nil, err
		}
		for h := 0; h < hops; h++ {
			mover := cl.Node(1 + h).Root()
			if err := mover.MoveTo(ref, gaddr.NodeID(2+h)); err != nil {
				return nil, err
			}
		}
		// Reference from node 0, which has never heard of the object: home
		// fallback to node 1, then the chain.
		ctx := cl.Node(0).Root()
		before := cl.NetStats().Value("msgs_sent")
		fwdBefore := sumNodeStat(cl, "forwards")
		updBefore := sumNodeStat(cl, "chain_updates_sent")
		probesBefore := sumRPCStat(cl, "rpc_probes_sent")
		if _, err := ctx.Invoke(ref, "Touch"); err != nil {
			return nil, err
		}
		// The chain-cache updates and the forwarders' probes are asynchronous;
		// wait for them to land so the first-reference bill is complete: in
		// this fresh cluster, every forwarder k has had its probe of node k+1
		// answered and has received the executor's chain update.
		settle(func() bool {
			for k := 1; k <= hops; k++ {
				n := cl.Node(k)
				if _, ok := n.Endpoint().PeerClockOffset(gaddr.NodeID(k + 1)); !ok ||
					n.Stats().Value("chain_updates_applied")+n.Stats().Value("chain_updates_stale") == 0 {
					return false
				}
			}
			return true
		})
		first := cl.NetStats().Value("msgs_sent") - before
		firstFwd := sumNodeStat(cl, "forwards") - fwdBefore
		firstUpd := sumNodeStat(cl, "chain_updates_sent") - updBefore
		firstProbes := sumRPCStat(cl, "rpc_probes_sent") - probesBefore

		before = cl.NetStats().Value("msgs_sent")
		fwdBefore = sumNodeStat(cl, "forwards")
		hitsBefore := sumNodeStat(cl, "hint_hits")
		if _, err := ctx.Invoke(ref, "Touch"); err != nil {
			return nil, err
		}
		second := cl.NetStats().Value("msgs_sent") - before
		secondFwd := sumNodeStat(cl, "forwards") - fwdBefore
		hits := sumNodeStat(cl, "hint_hits") - hitsBefore
		cl.Close()

		rows = append(rows, ChainRow{
			Hops:         hops,
			FirstMsgs:    first,
			SecondMsgs:   second,
			FirstFwd:     firstFwd,
			SecondFwd:    secondFwd,
			FirstUpdates: firstUpd,
			FirstProbes:  firstProbes,
			HintHits:     hits,
			FirstTime:    modelTime(CVAX1989, first, first*200),
			SecondTime:   modelTime(CVAX1989, second, second*200),
		})
	}
	return rows, nil
}

// settle polls done until it holds, for at most five seconds.
func settle(done func() bool) {
	for deadline := time.Now().Add(5 * time.Second); !done() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// MobilityRow is one line of the attachment/immutability ablation (E9).
type MobilityRow struct {
	Variant string
	Msgs    int64
	Bytes   int64
	Model   time.Duration
	Note    string
}

// payload is a small movable object.
type payload struct{ Data []byte }

// Peek reads one byte.
func (p *payload) Peek() byte {
	if len(p.Data) == 0 {
		return 0
	}
	return p.Data[0]
}

// MobilityAblation measures E9, two of §2.3's design points:
//
//   - Attachment: moving k related objects as one attached component versus
//     k independent moves.
//   - Immutability: r remote reads of a shared table versus marking it
//     immutable and replicating once.
func MobilityAblation(k, r int) ([]MobilityRow, error) {
	if k < 2 {
		k = 2
	}
	if r < 1 {
		r = 1
	}
	var rows []MobilityRow

	build := func() (*core.Cluster, []core.Ref, error) {
		reg := core.NewRegistry()
		cl, err := core.NewCluster(core.ClusterConfig{Nodes: 2, ProcsPerNode: 1, Registry: reg})
		if err != nil {
			return nil, nil, err
		}
		if err := cl.Register(&payload{}); err != nil {
			return nil, nil, err
		}
		refs := make([]core.Ref, k)
		for i := range refs {
			refs[i], err = cl.Node(0).Root().New(&payload{Data: make([]byte, 512)})
			if err != nil {
				return nil, nil, err
			}
		}
		return cl, refs, nil
	}

	// k independent moves.
	{
		cl, refs, err := build()
		if err != nil {
			return nil, err
		}
		ctx := cl.Node(0).Root()
		before, beforeB := cl.NetStats().Value("msgs_sent"), cl.NetStats().Value("bytes_sent")
		for _, ref := range refs {
			if err := ctx.MoveTo(ref, 1); err != nil {
				return nil, err
			}
		}
		m, b := cl.NetStats().Value("msgs_sent")-before, cl.NetStats().Value("bytes_sent")-beforeB
		rows = append(rows, MobilityRow{
			Variant: fmt.Sprintf("%d unattached objects, %d moves", k, k),
			Msgs:    m, Bytes: b, Model: modelTime(CVAX1989, m, b),
			Note: "one install round trip per object",
		})
		cl.Close()
	}

	// One move of an attached component.
	{
		cl, refs, err := build()
		if err != nil {
			return nil, err
		}
		ctx := cl.Node(0).Root()
		for i := 1; i < len(refs); i++ {
			if err := ctx.Attach(refs[i], refs[0]); err != nil {
				return nil, err
			}
		}
		before, beforeB := cl.NetStats().Value("msgs_sent"), cl.NetStats().Value("bytes_sent")
		if err := ctx.MoveTo(refs[0], 1); err != nil {
			return nil, err
		}
		m, b := cl.NetStats().Value("msgs_sent")-before, cl.NetStats().Value("bytes_sent")-beforeB
		rows = append(rows, MobilityRow{
			Variant: fmt.Sprintf("%d attached objects, 1 move", k),
			Msgs:    m, Bytes: b, Model: modelTime(CVAX1989, m, b),
			Note: "whole component ships in one transfer (§2.3)",
		})
		cl.Close()
	}

	// r remote reads of a mutable object.
	{
		cl, refs, err := build()
		if err != nil {
			return nil, err
		}
		ctx1 := cl.Node(1).Root()
		before, beforeB := cl.NetStats().Value("msgs_sent"), cl.NetStats().Value("bytes_sent")
		for i := 0; i < r; i++ {
			if _, err := ctx1.Invoke(refs[0], "Peek"); err != nil {
				return nil, err
			}
		}
		m, b := cl.NetStats().Value("msgs_sent")-before, cl.NetStats().Value("bytes_sent")-beforeB
		rows = append(rows, MobilityRow{
			Variant: fmt.Sprintf("mutable object, %d remote reads", r),
			Msgs:    m, Bytes: b, Model: modelTime(CVAX1989, m, b),
			Note: "every read is a remote invocation",
		})
		cl.Close()
	}

	// Immutable: replicate once, then read locally.
	{
		cl, refs, err := build()
		if err != nil {
			return nil, err
		}
		ctx0 := cl.Node(0).Root()
		ctx1 := cl.Node(1).Root()
		before, beforeB := cl.NetStats().Value("msgs_sent"), cl.NetStats().Value("bytes_sent")
		if err := ctx0.SetImmutable(refs[0]); err != nil {
			return nil, err
		}
		if err := ctx1.MoveTo(refs[0], 1); err != nil { // copies (§2.3)
			return nil, err
		}
		for i := 0; i < r; i++ {
			if _, err := ctx1.Invoke(refs[0], "Peek"); err != nil {
				return nil, err
			}
		}
		m, b := cl.NetStats().Value("msgs_sent")-before, cl.NetStats().Value("bytes_sent")-beforeB
		rows = append(rows, MobilityRow{
			Variant: fmt.Sprintf("immutable object, 1 replication + %d local reads", r),
			Msgs:    m, Bytes: b, Model: modelTime(CVAX1989, m, b),
			Note: "MoveTo copies; replica serves all reads locally",
		})
		cl.Close()
	}
	return rows, nil
}
