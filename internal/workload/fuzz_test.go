package workload

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadInstance hardens the single-instance parser behind wspsolve -in:
// arbitrary input must either parse into a structurally valid instance or
// fail cleanly — never panic, and never yield an instance the mechanisms
// would choke on.
func FuzzReadInstance(f *testing.F) {
	ins := Instance(NewRand(2), InstanceConfig{Bidders: 4})
	var buf bytes.Buffer
	if err := WriteInstance(&buf, ins); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add(`{"kind":"edgeauction-instance","version":1,"demand":[1],"bids":[]}`)
	f.Add(`{"kind":"edgeauction-instance","version":1,"demand":[-1]}`)

	f.Fuzz(func(t *testing.T, data string) {
		got, err := ReadInstance(strings.NewReader(data))
		if err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("parser accepted invalid instance: %v", err)
		}
	})
}
