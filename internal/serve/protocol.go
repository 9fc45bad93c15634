// Package serve is dmml's batched online inference server: the deployment
// stage of the paper's ML lifecycle, where trained models logged to
// internal/modeldb are scored over the network. Per-connection goroutines
// decode a compact length-prefixed binary protocol and feed a shared
// admission/batching stage that coalesces concurrent predict requests for
// the same model into one pooled GEMV (plus a compiled fused link kernel),
// amortizing dispatch across the batch. Hot model weights are cached per
// model and swapped atomically when a new version is logged, so reloads
// never drop or misroute in-flight requests.
package serve

import (
	"fmt"
	"io"
	"math"
)

// Wire format (all integers and floats little-endian):
//
//	frame    := u32 payloadLen | payload            (payloadLen = len(payload))
//	payload  := u16 magic | u8 version | u8 kind | u64 requestID | body
//
// Request kinds (high bit clear):
//
//	OpPredict body := u8 nameLen | name | u16 nFeatures | nFeatures × f64
//
// Response kinds (high bit set):
//
//	StatusOK       body := u32 modelVersion | f64 prediction
//	other statuses body := u16 msgLen | msg
//
// Every length is validated against the frame length — a payload must be
// consumed exactly — and all limits below are enforced before any
// allocation sized from untrusted bytes.
const (
	// Magic identifies a dmml serve frame ("DM" little-endian).
	Magic uint16 = 0x4D44
	// ProtoVersion is the protocol version this package speaks.
	ProtoVersion byte = 1

	// OpPredict requests one prediction for one feature row.
	OpPredict byte = 0x01

	// StatusOK carries a prediction and the model version that produced it.
	StatusOK byte = 0x80
	// StatusNoModel: the named model has no logged runs.
	StatusNoModel byte = 0x81
	// StatusBadRequest: malformed frame or wrong feature dimension.
	StatusBadRequest byte = 0x82
	// StatusInternal: the server failed to score an admitted request.
	StatusInternal byte = 0x84

	// MaxFrame bounds a frame payload; ReadFrame rejects larger lengths
	// before allocating, so a hostile length prefix cannot balloon memory.
	MaxFrame = 1 << 20
	// MaxName bounds the model-name field.
	MaxName = 255
	// MaxFeatures bounds the feature-row width.
	MaxFeatures = 4096
	// MaxErrMsg bounds the error-message field of a response.
	MaxErrMsg = 512

	lenPrefix = 4
	headerLen = 2 + 1 + 1 + 8 // magic, version, kind, requestID
)

// Request is one decoded predict request.
type Request struct {
	ID    uint64
	Model string
	Row   []float64
}

// Response is one decoded response frame.
type Response struct {
	ID           uint64
	Status       byte
	ModelVersion uint32 // StatusOK only
	Value        float64
	Msg          string // non-OK only
}

// Little-endian primitives, hand-rolled so the codec's hot loops stay free
// of interface-typed stdlib calls and provably allocation-free.

//dmml:noalloc
func leU16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }

//dmml:noalloc
func lePutU16(b []byte, v uint16) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
}

//dmml:noalloc
func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

//dmml:noalloc
func lePutU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

//dmml:noalloc
func leU64(b []byte) uint64 {
	return uint64(leU32(b)) | uint64(leU32(b[4:]))<<32
}

//dmml:noalloc
func lePutU64(b []byte, v uint64) {
	lePutU32(b, uint32(v))
	lePutU32(b[4:], uint32(v>>32))
}

//dmml:noalloc
func leF64(b []byte) float64 { return math.Float64frombits(leU64(b)) }

//dmml:noalloc
func lePutF64(b []byte, v float64) { lePutU64(b, math.Float64bits(v)) }

// decodeRowInto converts n wire floats from b into dst[:n]. dst must have
// length n and b length 8n; the callers size both from validated headers.
//dmml:noalloc
func decodeRowInto(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = leF64(b[8*i:])
	}
}

// encodeRowInto writes row into b (8 bytes per element).
//dmml:noalloc
func encodeRowInto(b []byte, row []float64) {
	for i, v := range row {
		lePutF64(b[8*i:], v)
	}
}

// grow extends buf to length n, reusing capacity when it can.
func grow(buf []byte, n int) []byte {
	if cap(buf) >= n {
		return buf[:n]
	}
	return append(buf[:cap(buf)], make([]byte, n-cap(buf))...)
}

func appendHeader(buf []byte, payloadLen int, kind byte, id uint64) []byte {
	at := len(buf)
	buf = grow(buf, at+lenPrefix+headerLen)
	lePutU32(buf[at:], uint32(payloadLen))
	lePutU16(buf[at+4:], Magic)
	buf[at+6] = ProtoVersion
	buf[at+7] = kind
	lePutU64(buf[at+8:], id)
	return buf
}

// AppendRequest appends a length-prefixed predict frame for r to buf and
// returns the extended slice. It validates the request against the wire
// limits so a malformed request is caught on the client, not the server.
func AppendRequest(buf []byte, r Request) ([]byte, error) {
	if len(r.Model) == 0 || len(r.Model) > MaxName {
		return buf, fmt.Errorf("serve: model name length %d outside [1, %d]", len(r.Model), MaxName)
	}
	if len(r.Row) == 0 || len(r.Row) > MaxFeatures {
		return buf, fmt.Errorf("serve: feature row length %d outside [1, %d]", len(r.Row), MaxFeatures)
	}
	payloadLen := headerLen + 1 + len(r.Model) + 2 + 8*len(r.Row)
	buf = appendHeader(buf, payloadLen, OpPredict, r.ID)
	at := len(buf)
	buf = grow(buf, at+1+len(r.Model)+2+8*len(r.Row))
	buf[at] = byte(len(r.Model))
	copy(buf[at+1:], r.Model)
	at += 1 + len(r.Model)
	lePutU16(buf[at:], uint16(len(r.Row)))
	encodeRowInto(buf[at+2:], r.Row)
	return buf, nil
}

// AppendResponse appends a length-prefixed response frame for r to buf and
// returns the extended slice. Over-long messages are truncated to MaxErrMsg.
func AppendResponse(buf []byte, r Response) []byte {
	if r.Status == StatusOK {
		buf = appendHeader(buf, headerLen+4+8, StatusOK, r.ID)
		at := len(buf)
		buf = grow(buf, at+4+8)
		lePutU32(buf[at:], r.ModelVersion)
		lePutF64(buf[at+4:], r.Value)
		return buf
	}
	msg := r.Msg
	if len(msg) > MaxErrMsg {
		msg = msg[:MaxErrMsg]
	}
	buf = appendHeader(buf, headerLen+2+len(msg), r.Status, r.ID)
	at := len(buf)
	buf = grow(buf, at+2+len(msg))
	lePutU16(buf[at:], uint16(len(msg)))
	copy(buf[at+2:], msg)
	return buf
}

// decodeHeader validates the shared payload header and returns kind and id.
func decodeHeader(payload []byte) (kind byte, id uint64, err error) {
	if len(payload) < headerLen {
		return 0, 0, fmt.Errorf("serve: payload %d bytes, header needs %d", len(payload), headerLen)
	}
	if m := leU16(payload); m != Magic {
		return 0, 0, fmt.Errorf("serve: bad magic %#04x", m)
	}
	if v := payload[2]; v != ProtoVersion {
		return 0, 0, fmt.Errorf("serve: unsupported protocol version %d", v)
	}
	return payload[3], leU64(payload[4:]), nil
}

// DecodeRequest parses a predict-request payload (a frame minus its length
// prefix). The decoded row is written into rowBuf when it has sufficient
// capacity (so a connection loop reuses one buffer for every frame) and
// freshly allocated otherwise. The model name is copied out of payload.
func DecodeRequest(payload []byte, rowBuf []float64) (Request, error) {
	kind, id, err := decodeHeader(payload)
	if err != nil {
		return Request{}, err
	}
	req := Request{ID: id}
	if kind != OpPredict {
		return req, fmt.Errorf("serve: unknown request kind %#02x", kind)
	}
	body := payload[headerLen:]
	if len(body) < 1 {
		return req, fmt.Errorf("serve: request body missing name length")
	}
	nameLen := int(body[0])
	if nameLen == 0 {
		return req, fmt.Errorf("serve: empty model name")
	}
	if len(body) < 1+nameLen+2 {
		return req, fmt.Errorf("serve: request body %d bytes too short for name length %d", len(body), nameLen)
	}
	req.Model = string(body[1 : 1+nameLen])
	nFeat := int(leU16(body[1+nameLen:]))
	rowBytes := body[1+nameLen+2:]
	if nFeat == 0 || nFeat > MaxFeatures {
		return req, fmt.Errorf("serve: feature count %d outside [1, %d]", nFeat, MaxFeatures)
	}
	if len(rowBytes) != 8*nFeat {
		return req, fmt.Errorf("serve: row payload %d bytes, want %d for %d features", len(rowBytes), 8*nFeat, nFeat)
	}
	if cap(rowBuf) >= nFeat {
		req.Row = rowBuf[:nFeat]
	} else {
		req.Row = make([]float64, nFeat)
	}
	decodeRowInto(req.Row, rowBytes)
	return req, nil
}

// DecodeResponse parses a response payload (a frame minus its length prefix).
func DecodeResponse(payload []byte) (Response, error) {
	kind, id, err := decodeHeader(payload)
	if err != nil {
		return Response{}, err
	}
	resp := Response{ID: id, Status: kind}
	body := payload[headerLen:]
	if kind == StatusOK {
		if len(body) != 4+8 {
			return resp, fmt.Errorf("serve: OK body %d bytes, want 12", len(body))
		}
		resp.ModelVersion = leU32(body)
		resp.Value = leF64(body[4:])
		return resp, nil
	}
	if kind < StatusOK {
		return resp, fmt.Errorf("serve: unknown response kind %#02x", kind)
	}
	if len(body) < 2 {
		return resp, fmt.Errorf("serve: error body missing message length")
	}
	msgLen := int(leU16(body))
	if msgLen > MaxErrMsg {
		return resp, fmt.Errorf("serve: error message length %d exceeds %d", msgLen, MaxErrMsg)
	}
	if len(body) != 2+msgLen {
		return resp, fmt.Errorf("serve: error body %d bytes, want %d", len(body), 2+msgLen)
	}
	resp.Msg = string(body[2:])
	return resp, nil
}

// ReadFrame reads one length-prefixed frame from r into buf (grown as
// needed) and returns the payload. The length prefix is validated against
// MaxFrame and the header size before any allocation, so a corrupt or
// hostile prefix cannot trigger an unbounded read.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var pre [lenPrefix]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return buf[:0], err
	}
	n := int(leU32(pre[:]))
	if n < headerLen || n > MaxFrame {
		return buf[:0], fmt.Errorf("serve: frame length %d outside [%d, %d]", n, headerLen, MaxFrame)
	}
	buf = grow(buf, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf[:0], err
	}
	return buf, nil
}
