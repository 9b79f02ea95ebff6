// Package shard stubs the real shard package's surface: the Shard
// interface faultseam guards, the RPC client and interface methods
// lockguard treats as blocking, and a concrete Local faultseam exempts.
package shard

type Shard interface {
	Ping() error
	Build(index int) error
	Rows(n int) (int, error)
	Close() error
}

type RPC struct{}

func (r *RPC) Call(path string) error { return nil }

type Local struct{}

func (l *Local) Ping() error           { return nil }
func (l *Local) Build(index int) error { return nil }
func (l *Local) Rows(n int) (int, error) {
	return n, nil
}
func (l *Local) Close() error { return nil }
