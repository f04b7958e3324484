package testutil

import (
	"net"
	"sync/atomic"
)

// CountingListener wraps a listener so that the connections it accepts
// count their Read and Write calls. A Read is counted when it returns
// and a Write when it begins: once a closed-loop caller has its answer,
// the serving side's Read of the request and Write of the answer are
// both counted, and a Read blocked on the next request is not.
type CountingListener struct {
	net.Listener
	reads, writes atomic.Uint64
}

// Reads is the number of Read calls that have returned.
func (l *CountingListener) Reads() uint64 { return l.reads.Load() }

// Writes is the number of Write calls that have begun.
func (l *CountingListener) Writes() uint64 { return l.writes.Load() }

// Accept wraps the accepted connection in a counting one.
func (l *CountingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, l: l}, nil
}

// countingConn is one accepted connection, counting into its listener.
type countingConn struct {
	net.Conn
	l *CountingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.reads.Add(1)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}
