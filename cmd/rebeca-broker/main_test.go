package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/filter"
	"repro/internal/flow"
	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/transport"
	"repro/internal/wire"
)

func TestRunRequiresID(t *testing.T) {
	if err := run([]string{"-listen", ":0"}); err == nil {
		t.Error("missing -id should fail")
	}
}

func TestRunRejectsBadStrategy(t *testing.T) {
	err := run([]string{"-id", "b1", "-strategy", "bogus", "-listen", ":0"})
	if err == nil {
		t.Fatal("bad strategy should fail")
	}
	// The error names the valid strategies, so -strategy typos are
	// self-documenting.
	for _, name := range routing.StrategyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q should list %q", err, name)
		}
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	if err := run([]string{"-id", "b1", "-zzz"}); err == nil {
		t.Error("bad flag should fail")
	}
}

func TestRunRejectsUnreachablePeer(t *testing.T) {
	// 127.0.0.1:1 is essentially guaranteed closed.
	err := run([]string{"-id", "b1", "-listen", "127.0.0.1:0", "-peer", "127.0.0.1:1"})
	if err == nil {
		t.Error("unreachable peer should fail")
	}
}

func TestRunRejectsBadFlowFlags(t *testing.T) {
	cases := [][]string{
		{"-id", "b1", "-listen", ":0", "-maxbatch", "-1"},
		{"-id", "b1", "-listen", ":0", "-mailbox-cap", "-2"},
		{"-id", "b1", "-listen", ":0", "-send-window", "0"},
		{"-id", "b1", "-listen", ":0", "-send-policy", "bogus"},
		// Block-bounded mailboxes deadlock on bidirectional broker
		// flows, so the daemon refuses the combination outright.
		{"-id", "b1", "-listen", ":0", "-mailbox-cap", "64", "-mailbox-policy", "block"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestRunRejectsBadPolicyListingNames(t *testing.T) {
	err := run([]string{"-id", "b1", "-listen", ":0", "-mailbox-policy", "bogus"})
	if err == nil {
		t.Fatal("bad mailbox policy should fail")
	}
	// The error names the valid policies, so typos are self-documenting.
	for _, name := range flow.PolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q should list %q", err, name)
		}
	}
}

// TestIdleConnectionDoesNotWedgeAccept: a connection that opens and never
// sends its handshake must not hold up the accept loop. While it stays
// open, a legitimate client attaches and its subscription reaches the
// broker's table well within the handshake deadline.
func TestIdleConnectionDoesNotWedgeAccept(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	b := broker.New("b1", broker.Options{})
	b.Start()
	defer b.Close()
	stop := make(chan struct{})
	defer close(stop)
	go serveConns(ln, "b1", b, flow.Options{Capacity: transport.DefaultSendWindow, Policy: flow.Block}, stop)

	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	start := time.Now()
	link, err := transport.DialTCPClient(ln.Addr().String(), "alice", discard{})
	if err != nil {
		t.Fatalf("client handshake behind an idle connection: %v", err)
	}
	defer link.Close()
	f := filter.MustNew(filter.EQ("type", message.String("quote")))
	if err := link.Send(wire.NewSubscribe(wire.Subscription{Filter: f, Client: "alice", ID: "s1"})); err != nil {
		t.Fatal(err)
	}
	for {
		if subs, _ := b.TableSizes(); subs > 0 {
			break
		}
		if time.Since(start) > transport.HandshakeTimeout/2 {
			t.Fatal("client not attached while an idle connection holds its handshake open")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// discard is a transport.Receiver that drops everything.
type discard struct{}

func (discard) Receive(transport.Inbound) {}
