package serve

// Predict sends one request and waits for its response: the synchronous
// round trip the tests drive; shipped callers pipeline Send/Flush/Recv.
func (c *Client) Predict(model string, row []float64) (Response, error) {
	id, err := c.Send(model, row)
	if err != nil {
		return Response{}, err
	}
	if err := c.Flush(); err != nil {
		return Response{}, err
	}
	resp, err := c.Recv()
	if err != nil {
		return Response{}, err
	}
	for resp.ID != id { // stale pipelined responses (none in sync use)
		if resp, err = c.Recv(); err != nil {
			return Response{}, err
		}
	}
	return resp, nil
}
