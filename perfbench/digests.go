package main

// committedDigests are the seed-1 digests of each workload's simulated
// statistics: for serve-observed they also cover the replay outcomes, and
// for paper-quick they are of the rendered artifact text, byte for byte
// what `polca-experiments -quick -parallel 2` prints. A change that moves
// one has changed what is simulated, not only how fast.
var committedDigests = map[string]string{
	"slot-week":      "7e2c699613607538",
	"serve-observed": "27e7d322c2a32529",
	"paper-quick":    "f5302cac67747bca",
}
