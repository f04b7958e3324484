package client

import (
	"errors"
	"testing"
	"time"

	"agilefpga/internal/wire"
)

func testClient() *Client {
	c := &Client{opts: Options{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, JitterSeed: 1}}
	c.bo = NewBackoff(c.opts.BaseBackoff, c.opts.MaxBackoff, c.opts.JitterSeed)
	return c
}

// TestBackoffSeedDeterminism pins the satellite contract: the same
// JitterSeed yields the same retry schedule, different seeds diverge.
func TestBackoffSeedDeterminism(t *testing.T) {
	mk := func(seed uint64) []time.Duration {
		c := &Client{opts: Options{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, JitterSeed: seed}}
		c.bo = NewBackoff(c.opts.BaseBackoff, c.opts.MaxBackoff, seed)
		var ds []time.Duration
		for attempt := 0; attempt < 6; attempt++ {
			ds = append(ds, c.bo.Delay(attempt))
		}
		return ds
	}
	a, b := mk(42), mk(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i, a[i], b[i])
		}
	}
	other := mk(43)
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced an identical schedule")
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	c := testClient()
	prevMax := time.Duration(0)
	for attempt := 0; attempt < 10; attempt++ {
		// Nominal delay for this attempt: base << attempt, capped.
		nominal := c.opts.BaseBackoff << uint(attempt)
		if nominal <= 0 || nominal > c.opts.MaxBackoff {
			nominal = c.opts.MaxBackoff
		}
		for i := 0; i < 50; i++ {
			d := c.bo.Delay(attempt)
			if d < nominal/2 || d > nominal {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, nominal/2, nominal)
			}
		}
		if nominal < prevMax {
			t.Fatalf("attempt %d: nominal shrank", attempt)
		}
		prevMax = nominal
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&StatusError{Status: wire.StatusResourceExhausted}, true},
		{&StatusError{Status: wire.StatusUnavailable}, true},
		{&StatusError{Status: wire.StatusInternal}, false},
		{&StatusError{Status: wire.StatusNotFound}, false},
		{&TransportError{errors.New("conn reset")}, true},
		{errors.New("anything else"), false},
	}
	for i, tc := range cases {
		if got := retryable(tc.err); got != tc.want {
			t.Errorf("case %d (%v): retryable = %v, want %v", i, tc.err, got, tc.want)
		}
	}
}

func TestStatusErrorMessage(t *testing.T) {
	e := &StatusError{Status: wire.StatusResourceExhausted, Msg: "server at capacity"}
	if e.Error() != "server answered resource_exhausted: server at capacity" {
		t.Fatalf("message = %q", e.Error())
	}
	var te *TransportError
	wrapped := &TransportError{errors.New("boom")}
	if !errors.As(error(wrapped), &te) || errors.Unwrap(wrapped).Error() != "boom" {
		t.Fatal("transport error does not unwrap")
	}
}

func TestDialFailureIsTransport(t *testing.T) {
	// A port nothing listens on: dial must fail with a retryable
	// transport error, not hang.
	_, err := Dial("127.0.0.1:1", Options{DialTimeout: 200 * time.Millisecond})
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want TransportError", err)
	}
	if !retryable(err) {
		t.Fatal("dial failures must be retryable")
	}
}
