package serve

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range []Request{
		{ID: 1, Model: "m", Row: []float64{0}},
		{ID: 1<<64 - 1, Model: strings.Repeat("n", MaxName), Row: []float64{1.5, -2.25, math.Pi}},
		{ID: 42, Model: "churn", Row: make([]float64, MaxFeatures)},
		{ID: 7, Model: "nan", Row: []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.0}},
	} {
		frame, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("encode %+v: %v", req, err)
		}
		got, err := DecodeRequest(frame[lenPrefix:], nil)
		if err != nil {
			t.Fatalf("decode %+v: %v", req, err)
		}
		if got.ID != req.ID || got.Model != req.Model || len(got.Row) != len(req.Row) {
			t.Fatalf("round trip: got %+v want %+v", got, req)
		}
		for i := range req.Row {
			if math.Float64bits(got.Row[i]) != math.Float64bits(req.Row[i]) {
				t.Fatalf("row[%d]: %v != %v (bits differ)", i, got.Row[i], req.Row[i])
			}
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, resp := range []Response{
		{ID: 9, Status: StatusOK, ModelVersion: 3, Value: 0.75},
		{ID: 10, Status: StatusNoModel, Msg: "no runs named \"x\""},
		{ID: 11, Status: StatusBadRequest, Msg: ""},
		{ID: 12, Status: StatusInternal, Msg: strings.Repeat("y", MaxErrMsg)},
	} {
		frame := AppendResponse(nil, resp)
		got, err := DecodeResponse(frame[lenPrefix:])
		if err != nil {
			t.Fatalf("decode %+v: %v", resp, err)
		}
		if got != resp {
			t.Fatalf("round trip: got %+v want %+v", got, resp)
		}
	}
}

func TestAppendRequestRejectsBadInputs(t *testing.T) {
	if _, err := AppendRequest(nil, Request{Model: "", Row: []float64{1}}); err == nil {
		t.Fatal("empty model accepted")
	}
	if _, err := AppendRequest(nil, Request{Model: strings.Repeat("m", MaxName+1), Row: []float64{1}}); err == nil {
		t.Fatal("over-long model accepted")
	}
	if _, err := AppendRequest(nil, Request{Model: "m", Row: nil}); err == nil {
		t.Fatal("empty row accepted")
	}
	if _, err := AppendRequest(nil, Request{Model: "m", Row: make([]float64, MaxFeatures+1)}); err == nil {
		t.Fatal("over-wide row accepted")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	valid, err := AppendRequest(nil, Request{ID: 5, Model: "m", Row: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	payload := valid[lenPrefix:]
	cases := map[string][]byte{
		"empty":          {},
		"short header":   payload[:headerLen-1],
		"bad magic":      append([]byte{0xff, 0xff}, payload[2:]...),
		"bad version":    func() []byte { p := bytes.Clone(payload); p[2] = 99; return p }(),
		"bad kind":       func() []byte { p := bytes.Clone(payload); p[3] = 0x7f; return p }(),
		"truncated row":  payload[:len(payload)-3],
		"oversized body": append(bytes.Clone(payload), 0xAA),
		"name over body": func() []byte { p := bytes.Clone(payload); p[headerLen] = 200; return p }(),
		"zero features": func() []byte {
			p := bytes.Clone(payload)
			lePutU16(p[headerLen+2:], 0)
			return p[:headerLen+2+2]
		}(),
	}
	for name, p := range cases {
		if _, err := DecodeRequest(p, nil); err == nil {
			t.Errorf("%s: decode accepted", name)
		}
	}
	if _, err := DecodeResponse(payload); err == nil {
		t.Error("request payload accepted as response")
	}
}

func TestReadFrameRejectsHostileLengths(t *testing.T) {
	// A hostile length prefix larger than MaxFrame must be rejected before
	// any allocation happens.
	var pre [lenPrefix]byte
	lePutU32(pre[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(pre[:]), nil); err == nil {
		t.Fatal("over-long frame accepted")
	}
	lePutU32(pre[:], headerLen-1)
	if _, err := ReadFrame(bytes.NewReader(pre[:]), nil); err == nil {
		t.Fatal("under-long frame accepted")
	}
	// Truncated stream: header promises more bytes than arrive.
	lePutU32(pre[:], 100)
	if _, err := ReadFrame(bytes.NewReader(append(pre[:], 1, 2, 3)), nil); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestReadFrameReusesBuffer(t *testing.T) {
	frame, err := AppendRequest(nil, Request{ID: 1, Model: "m", Row: []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	stream := bytes.NewReader(bytes.Repeat(frame, 3))
	buf := make([]byte, 0, 256)
	first := &buf[:1][0]
	for i := 0; i < 3; i++ {
		buf, err = ReadFrame(stream, buf)
		if err != nil {
			t.Fatal(err)
		}
		if &buf[0] != first {
			t.Fatal("ReadFrame reallocated despite sufficient capacity")
		}
		if _, err := DecodeRequest(buf, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzServeProtocol exercises the frame codec three ways: arbitrary bytes
// must never panic a decoder (or allocate unboundedly — lengths are checked
// before allocation), anything that does decode must re-encode/re-decode to
// the same value, and a structured request derived from the fuzz input must
// survive encode→decode exactly.
func FuzzServeProtocol(f *testing.F) {
	seed1, _ := AppendRequest(nil, Request{ID: 3, Model: "churn", Row: []float64{1, 2, 3}})
	seed2 := AppendResponse(nil, Response{ID: 4, Status: StatusOK, ModelVersion: 2, Value: 0.5})
	seed3 := AppendResponse(nil, Response{ID: 5, Status: StatusNoModel, Msg: "gone"})
	f.Add(seed1[lenPrefix:], uint64(1), "m")
	f.Add(seed2[lenPrefix:], uint64(2), "fraud")
	f.Add(seed3[lenPrefix:], uint64(9), strings.Repeat("z", MaxName))
	f.Add([]byte{0x44, 0x4d, 1, 1}, uint64(0), "")

	f.Fuzz(func(t *testing.T, payload []byte, id uint64, model string) {
		// 1. Hostile payloads: decoders must reject or round-trip, never panic.
		if req, err := DecodeRequest(payload, nil); err == nil {
			re, err := AppendRequest(nil, req)
			if err != nil {
				t.Fatalf("decoded request %+v does not re-encode: %v", req, err)
			}
			back, err := DecodeRequest(re[lenPrefix:], nil)
			if err != nil {
				t.Fatalf("re-encoded request does not decode: %v", err)
			}
			if back.ID != req.ID || back.Model != req.Model || len(back.Row) != len(req.Row) {
				t.Fatalf("request round trip drifted: %+v vs %+v", back, req)
			}
		}
		if resp, err := DecodeResponse(payload); err == nil {
			back, err := DecodeResponse(AppendResponse(nil, resp)[lenPrefix:])
			sameValue := math.Float64bits(back.Value) == math.Float64bits(resp.Value)
			if err != nil || back.ID != resp.ID || back.Status != resp.Status ||
				back.ModelVersion != resp.ModelVersion || back.Msg != resp.Msg || !sameValue {
				t.Fatalf("response round trip drifted: %+v vs %+v (%v)", back, resp, err)
			}
		}
		// 2. ReadFrame over the raw bytes: must never panic or over-read.
		if _, err := ReadFrame(bytes.NewReader(payload), nil); err == nil {
			// fine: payload happened to carry a well-formed length prefix
			_ = err
		}
		// 3. Structured round trip from the fuzzed scalars.
		if len(model) == 0 || len(model) > MaxName {
			return
		}
		row := make([]float64, 1+len(payload)%8)
		for i := range row {
			row[i] = float64(i) * 0.5
		}
		frame, err := AppendRequest(nil, Request{ID: id, Model: model, Row: row})
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRequest(frame[lenPrefix:], nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != id || got.Model != model || len(got.Row) != len(row) {
			t.Fatalf("structured round trip drifted: %+v", got)
		}
	})
}
