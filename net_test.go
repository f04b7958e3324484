package agilefpga

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// TestServeDialRoundTrip drives the whole public network path: a
// cluster behind Serve, a Dial client calling by name, output equality
// against the direct cluster call, /metrics-visible server series, and
// a graceful shutdown.
func TestServeDialRoundTrip(t *testing.T) {
	cl, err := NewCluster(2, ModeAffinity, Config{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv, err := Serve("127.0.0.1:0", cl, NetOptions{})
	if err != nil {
		t.Fatal(err)
	}

	c, err := Dial(srv.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	in := []byte("sixteen byte in!")
	direct, _, err := cl.Call("crc32", in)
	if err != nil {
		t.Fatal(err)
	}
	out, card, err := c.Call(context.Background(), "crc32", in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, direct.Output) {
		t.Fatalf("network output %x != direct %x", out, direct.Output)
	}
	if card < 0 || card >= 2 {
		t.Fatalf("card = %d", card)
	}

	if _, _, err := c.Call(context.Background(), "no-such-fn", in); err == nil {
		t.Fatal("unknown name accepted")
	}

	// The server records a request after its response is flushed, so
	// the series may trail the client's return by a moment.
	var buf bytes.Buffer
	for _, series := range []string{"agile_server_requests_total", "agile_server_request_seconds"} {
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			buf.Reset()
			if err := cl.Metrics().WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			if strings.Contains(buf.String(), series) {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("exposition missing %s", series)
				break
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The drained server refuses new work; the cluster still serves
	// locally.
	if _, _, err := c.Call(context.Background(), "crc32", in); err == nil {
		t.Fatal("call succeeded after shutdown")
	}
	if _, _, err := cl.Call("crc32", in); err != nil {
		t.Fatalf("local call after network shutdown: %v", err)
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", DialOptions{DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}
