package main

// referenceDigests records the outcome digest of every workload at scale 1
// for the development seed (1) and the held-out seed (2). A run on one of
// these seeds whose simulated outcome differs fails its output checks: a
// change that only claims speed must leave every schedule bit-identical.
// Any other seed is checked against its own reference pass only.
var referenceDigests = map[string]map[uint64]uint64{
	"table1-txn":       {1: 0x0d88ea668e1d15fe, 2: 0xa19b9526ef52d59b},
	"live-replay":      {1: 0x13866a46c0a5844c, 2: 0xcbe281455d629941},
	"fleet-failover":   {1: 0x0b1f3ff3d7ed9865, 2: 0x919e6b43eeb934f2},
	"contention-sweep": {1: 0x77e1fd23ebfaf666, 2: 0x278559a95cee1d4b},
}
