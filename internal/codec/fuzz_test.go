package codec

import (
	"strings"
	"testing"
)

// FuzzDecodeSequence checks that arbitrary input never panics the decoder.
func FuzzDecodeSequence(f *testing.F) {
	f.Add(`{"nodes":["a","b"],"initial":{"a":1},"transitions":[{"a":{"b":1},"b":{"b":1}}]}`)
	f.Add(`{"nodes":[]}`)
	f.Add(`garbage`)
	f.Fuzz(func(t *testing.T, data string) {
		m, err := DecodeSequence(strings.NewReader(data))
		if err == nil && m.Validate() != nil {
			t.Fatal("decoder returned an invalid sequence without error")
		}
	})
}

// FuzzDecodeTransducer checks that arbitrary input never panics.
func FuzzDecodeTransducer(f *testing.F) {
	f.Add(`{"input":["a"],"output":["x"],"states":1,"start":0,"accepting":[0],"transitions":[{"from":0,"symbol":"a","to":0,"emit":["x"]}]}`)
	f.Add(`{}`)
	f.Add(`{"input":["a"],"output":["x"],"states":4611686018427387904,"start":0}`)
	f.Add(`{"input":["a"],"output":["x"],"states":1000000000,"start":0}`)
	f.Fuzz(func(t *testing.T, data string) {
		DecodeTransducer(strings.NewReader(data))
	})
}
