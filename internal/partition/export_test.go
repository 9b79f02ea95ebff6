package partition

import (
	"reflect"
	"testing"

	"uagpnm/internal/shard"
)

// sv is the engine's §V substrate, nil on the ball plane: the one way
// this package's tests reach §V state.
func (e *Engine) sv() *sectionV {
	sv, _ := e.sub.(*sectionV)
	return sv
}

// AliveShards reports how many shard slots are currently serving (none
// on the ball plane).
func (e *Engine) AliveShards() int {
	if e.sv() == nil {
		return 0
	}
	return len(e.sv().aliveIndices())
}

// CheckHeldShardRows is the stale-row assertion of the §V plane,
// shared by this package's suites and the external failover suite. Its
// oracle is a fresh in-process shard built from the data graph's
// induced subgraphs (engineSource). Every row every alive RPC client
// holds must belong to a partition its slot serves and equal the
// oracle's; an in-process shard must answer every row of every live
// member as the oracle does, which it can only while its own subgraphs
// match the data graph. It returns how many rows were compared, so
// callers can refuse a vacuous pass.
func CheckHeldShardRows(t testing.TB, eng *Engine) int {
	t.Helper()
	e := eng.sv()
	oracle := shard.NewLocal()
	if err := oracle.Build(e.shardConfig(), 0, e.allPartIndices(), engineSource{e}); err != nil {
		t.Fatal(err)
	}
	held := 0
	check := func(i int, rq shard.RowReq, row shard.Row) {
		t.Helper()
		held++
		want, err := oracle.Rows([]shard.RowReq{rq})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(row, want[0]) {
			t.Fatalf("slot %d holds a stale row for %+v:\n held  %v\n fresh %v", i, rq, row, want[0])
		}
	}
	for _, i := range e.aliveIndices() {
		switch sh := e.shards[i].(type) {
		case *shard.RPC:
			for rq, row := range sh.Cached() {
				if rq.Part >= len(e.shardOf) || int(e.shardOf[rq.Part]) != i {
					t.Fatalf("slot %d holds a row of partition %d, which it does not serve", i, rq.Part)
				}
				check(i, rq, row)
			}
		case *shard.Local:
			for p, pt := range e.part.parts {
				for local, gid := range pt.globals {
					if e.part.partOf[gid] == none {
						continue
					}
					for _, reverse := range [2]bool{false, true} {
						rq := shard.RowReq{Part: p, Src: uint32(local), Reverse: reverse}
						row, err := sh.Rows([]shard.RowReq{rq})
						if err != nil {
							t.Fatal(err)
						}
						check(i, rq, row[0])
					}
				}
			}
		default:
			t.Fatalf("shard slot %d is a %T", i, e.shards[i])
		}
	}
	return held
}
