package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"amber/internal/core"
	"amber/internal/gaddr"
	"amber/internal/transport"
)

// The cluster is three processes on loopback: serve children as nodes 0 and
// 1, the drive process as node 2. Ports are never chosen in advance — every
// node listens on port 0 and reports what it got — so concurrent runs cannot
// collide. The handshake runs over the child's stdin/stdout:
//
//	child  → "ADDR host:port"      listening
//	parent → "PEERS 0=..,1=..,2=.."  everyone's address
//	child  → "READY"               core.Node is up
//
// and the child serves until its stdin closes, so it cannot outlive the
// driver however the driver dies.

const driverID gaddr.NodeID = 2

var allNodes = []gaddr.NodeID{0, 1, 2}

func serveMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	id := fs.Int("node", 0, "this node's ID (node 0 hosts the address-space server)")
	traced := fs.Bool("trace", false, "record thread-journey events from start-up")
	fs.Parse(args)
	if err := serve(gaddr.NodeID(*id), *traced); err != nil {
		fmt.Fprintf(os.Stderr, "serve node %d: %v\n", *id, err)
		return 1
	}
	return 0
}

func serve(id gaddr.NodeID, traced bool) error {
	tr, err := transport.NewTCP(transport.TCPConfig{Self: id, Listen: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer tr.Close()
	procTransport = tr
	fmt.Printf("ADDR %s\n", tr.Addr())
	in := bufio.NewReader(os.Stdin)
	line, err := in.ReadString('\n')
	if err != nil {
		return fmt.Errorf("reading peer list: %w", err)
	}
	peers, err := parsePeers(strings.TrimPrefix(strings.TrimSpace(line), "PEERS "))
	if err != nil {
		return err
	}
	delete(peers, id)
	tr.SetPeers(peers)
	node, err := newNode(id, tr, traced)
	if err != nil {
		return err
	}
	defer node.Close()
	fmt.Fprintf(os.Stderr, "node %d serving on %s, traced=%v\n", id, tr.Addr(), traced)
	fmt.Println("READY")
	_, err = io.Copy(io.Discard, in) // serve until the driver closes our stdin
	return err
}

func parsePeers(s string) (map[gaddr.NodeID]string, error) {
	peers := make(map[gaddr.NodeID]string)
	for _, kv := range strings.Split(s, ",") {
		idStr, addr, ok := strings.Cut(kv, "=")
		id, err := strconv.Atoi(idStr)
		if !ok || err != nil {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", kv)
		}
		peers[gaddr.NodeID(id)] = addr
	}
	return peers, nil
}

func formatPeers(peers map[gaddr.NodeID]string) string {
	parts := make([]string, 0, len(peers))
	for id, addr := range peers {
		parts = append(parts, fmt.Sprintf("%d=%s", id, addr))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// tail keeps a child's last stderr lines for the watchdog's report.
type tail struct {
	mu    sync.Mutex
	lines []string
}

const tailLines = 10

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range strings.Split(strings.TrimRight(string(p), "\n"), "\n") {
		t.lines = append(t.lines, l)
	}
	if n := len(t.lines); n > tailLines {
		t.lines = t.lines[n-tailLines:]
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, " | ")
}

type child struct {
	id    int
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	log   tail
	done  chan struct{} // closed once the process has been waited for
}

// live is every child not yet waited for, so a signal or a watchdog can kill
// them all.
var live = struct {
	mu  sync.Mutex
	set map[*child]struct{}
}{set: make(map[*child]struct{})}

func spawn(exe string, id int, traced bool) (*child, error) {
	args := []string{"serve", "-node", strconv.Itoa(id)}
	if traced {
		args = append(args, "-trace")
	}
	c := &child{id: id, cmd: exec.Command(exe, args...), done: make(chan struct{})}
	c.cmd.Stderr = &c.log
	var err error
	if c.stdin, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.out = bufio.NewReader(stdout)
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	live.mu.Lock()
	live.set[c] = struct{}{}
	live.mu.Unlock()
	go func() {
		c.cmd.Wait()
		live.mu.Lock()
		delete(live.set, c)
		live.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

// expect reads the child's next handshake line. It blocks; the watchdog
// unblocks it by killing the child.
func (c *child) expect(prefix string) (string, error) {
	line, err := c.out.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("node %d: waiting for %q: %w (log: %s)", c.id, prefix, err, &c.log)
	}
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, prefix) {
		return "", fmt.Errorf("node %d: got %q, want %q", c.id, line, prefix)
	}
	return strings.TrimSpace(strings.TrimPrefix(line, prefix)), nil
}

// stop closes the child's stdin, which ends serve, and waits for the process;
// one that does not leave is killed.
func (c *child) stop() {
	c.stdin.Close()
	select {
	case <-c.done:
	case <-time.After(2 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
	}
}

// killChildren kills every live child and waits for each to end. It returns
// their log tails for the caller's report.
func killChildren() string {
	live.mu.Lock()
	cs := make([]*child, 0, len(live.set))
	for c := range live.set {
		cs = append(cs, c)
	}
	live.mu.Unlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].id < cs[j].id })
	var logs []string
	for _, c := range cs {
		c.cmd.Process.Kill()
		<-c.done
		logs = append(logs, fmt.Sprintf("node %d: %s", c.id, &c.log))
	}
	return strings.Join(logs, "; ")
}

func killChildrenOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		killChildren()
		os.Exit(130)
	}()
}

// guard runs fn under a watchdog: past the limit the children are killed —
// which also unblocks fn wherever it waits on them — and the error carries
// their last log lines, so a hang fails one workload and not the whole run.
func guard(what string, limit time.Duration, fn func() error) error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		return fmt.Errorf("%s: watchdog fired after %v; children: %s", what, limit, killChildren())
	}
}

type cluster struct {
	children []*child
	tr       *transport.TCP
	node     *core.Node
	probes   []core.Ref // one BenchProbe on each serve node
}

func startCluster(exe string, traced bool) (cl *cluster, err error) {
	cl = &cluster{}
	defer func() {
		if err != nil {
			cl.stop()
		}
	}()
	if cl.tr, err = transport.NewTCP(transport.TCPConfig{Self: driverID, Listen: "127.0.0.1:0"}); err != nil {
		return nil, err
	}
	addrs := map[gaddr.NodeID]string{}
	for id := 0; id < int(driverID); id++ {
		c, err := spawn(exe, id, traced)
		if err != nil {
			return nil, err
		}
		cl.children = append(cl.children, c)
		if addrs[gaddr.NodeID(id)], err = c.expect("ADDR "); err != nil {
			return nil, err
		}
	}
	cl.tr.SetPeers(addrs)
	addrs[driverID] = cl.tr.Addr()
	// One node at a time, node 0 first: it hosts the address-space server
	// every later node asks for its regions, and a request that arrives
	// before the server's handler is installed is dropped, not queued.
	for _, c := range cl.children {
		if _, err := fmt.Fprintf(c.stdin, "PEERS %s\n", formatPeers(addrs)); err != nil {
			return nil, err
		}
		if _, err := c.expect("READY"); err != nil {
			return nil, err
		}
	}
	if cl.node, err = newNode(driverID, cl.tr, traced); err != nil {
		return nil, err
	}
	root := cl.node.Root()
	for id := range cl.children {
		ref, err := root.NewAt(gaddr.NodeID(id), &BenchProbe{})
		if err != nil {
			return nil, err
		}
		cl.probes = append(cl.probes, ref)
	}
	return cl, nil
}

func (cl *cluster) stop() {
	if cl.node != nil {
		cl.node.Close()
	}
	if cl.tr != nil {
		cl.tr.Close()
	}
	for _, c := range cl.children {
		c.stop()
	}
}
