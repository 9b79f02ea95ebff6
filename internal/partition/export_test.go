package partition

import (
	"reflect"
	"testing"

	"uagpnm/internal/shard"
)

// WithProcs is withProcs for the external test package.
var WithProcs = withProcs

// AliveShards reports how many shard slots are currently serving (none
// on the ball plane).
func (e *Engine) AliveShards() int {
	if e.sectionV == nil {
		return 0
	}
	return len(e.aliveIndices())
}

// CheckHeldShardRows is the stale-row assertion of the sharded read
// plane, shared by this package's suites and the external failover
// suite: every row every alive RPC client holds must belong to a
// partition its slot serves and equal what an in-process shard built
// from scratch over that partition's subgraph mirror answers. It
// returns how many rows were held, so callers can refuse a vacuous pass.
func CheckHeldShardRows(t testing.TB, e *Engine) int {
	t.Helper()
	cfg := e.shardConfig()
	oracle := shard.NewLocal(e.subOf)
	built := map[int]bool{}
	held := 0
	for _, i := range e.aliveIndices() {
		cl, ok := e.shards[i].(*shard.RPC)
		if !ok {
			t.Fatalf("shard slot %d is a %T, not an RPC client", i, e.shards[i])
		}
		for rq, row := range cl.Cached() {
			held++
			if rq.Part >= len(e.shardOf) || int(e.shardOf[rq.Part]) != i {
				t.Fatalf("slot %d holds a row of partition %d, which it does not serve", i, rq.Part)
			}
			if !built[rq.Part] {
				built[rq.Part] = true
				if err := oracle.Build(cfg, 0, []int{rq.Part}, nil); err != nil {
					t.Fatal(err)
				}
			}
			want, err := oracle.Rows([]shard.RowReq{rq})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(row, want[0]) {
				t.Fatalf("slot %d holds a stale row for %+v:\n held  %v\n fresh %v", i, rq, row, want[0])
			}
		}
	}
	return held
}
