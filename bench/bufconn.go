package main

import (
	"bytes"
	"net"
	"time"

	"fedsparse/internal/transport"
)

// bufConn is a net.Conn whose peer is a byte buffer: what Write appends,
// Read returns. Wrapped in the binary codec it turns Send into "encode"
// and Recv into "decode" with no socket in between, which is how the
// layer walk times the codec alone.
type bufConn struct{ buf bytes.Buffer }

func (c *bufConn) Read(p []byte) (int, error)       { return c.buf.Read(p) }
func (c *bufConn) Write(p []byte) (int, error)      { return c.buf.Write(p) }
func (c *bufConn) Close() error                     { return nil }
func (c *bufConn) LocalAddr() net.Addr              { return bufAddr{} }
func (c *bufConn) RemoteAddr() net.Addr             { return bufAddr{} }
func (c *bufConn) SetDeadline(time.Time) error      { return nil }
func (c *bufConn) SetReadDeadline(time.Time) error  { return nil }
func (c *bufConn) SetWriteDeadline(time.Time) error { return nil }

type bufAddr struct{}

func (bufAddr) Network() string { return "buf" }
func (bufAddr) String() string  { return "buf" }

// newCodecLoop returns a binary-codec connection looped back on itself:
// every Send must be followed by exactly one Recv (a Recv on the empty
// buffer would read EOF and poison the codec's receive side). The
// decoded message aliases the connection's decode scratch until the
// next Recv, exactly like a real connection end.
func newCodecLoop() transport.Conn { return transport.NewBinConn(&bufConn{}) }
