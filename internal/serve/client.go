package serve

import (
	"bufio"
	"net"
	"sync/atomic"
	"time"
)

// Client is a minimal protocol client over one TCP connection. Send/Recv
// are split so a driver can pipeline many requests before reading
// responses (the loadtest's closed loop); Predict is the synchronous
// convenience. Send/Flush and Recv touch disjoint buffers, so exactly one
// sender goroutine plus one receiver goroutine may share a Client (the
// loadtest's open loop); anything more concurrent needs one Client per
// goroutine, which is also how you exercise cross-connection batching.
type Client struct {
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	wbuf   []byte
	rbuf   []byte
	nextID atomic.Uint64
}

// Dial connects to a dmmlserve address.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{
		nc: nc,
		br: bufio.NewReaderSize(nc, 64<<10),
		bw: bufio.NewWriterSize(nc, 64<<10),
	}, nil
}

// Close tears down the connection.
func (c *Client) Close() error { return c.nc.Close() }

// Send writes one predict request without flushing and returns its
// request ID. Call Flush (or Predict) before expecting responses.
func (c *Client) Send(model string, row []float64) (uint64, error) {
	id := c.nextID.Add(1)
	var err error
	c.wbuf, err = AppendRequest(c.wbuf[:0], Request{ID: id, Model: model, Row: row})
	if err != nil {
		return 0, err
	}
	if _, err := c.bw.Write(c.wbuf); err != nil {
		return 0, err
	}
	return id, nil
}

// Flush pushes buffered requests onto the wire.
func (c *Client) Flush() error { return c.bw.Flush() }

// Recv reads one response frame.
func (c *Client) Recv() (Response, error) {
	var err error
	c.rbuf, err = ReadFrame(c.br, c.rbuf)
	if err != nil {
		return Response{}, err
	}
	return DecodeResponse(c.rbuf)
}
