package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"tip/internal/bench"
	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/repl"
	"tip/internal/server"
	"tip/internal/temporal"
	"tip/internal/workload"
)

// walPolicy is the WAL policy of durable primaries: every commit is
// appended and flushed to the OS before it is acknowledged, and fsync
// runs at checkpoints. Under the grouped policy the WAL's appends wait
// behind the background fsync's page writeback, so commit latency and
// throughput follow the host disk; on a shared virtual disk that moved
// clinic_oltp's throughput by 20-50% between runs minutes apart, more
// than any bound a change could be judged by.
const walPolicy = engine.SyncOnCheckpoint

// bootstrapWait bounds the replica's snapshot bootstrap.
const bootstrapWait = 60 * time.Second

// cluster is one in-process TIP deployment serving real TCP: a primary
// and, for replica_reads, one replica bootstrapped from its snapshot.
type cluster struct {
	dir      string
	walPath  string
	snapPath string
	durable  bool

	pdb   *engine.Database
	blade *core.Blade
	psrv  *server.Server
	prim  *repl.Primary

	rdb  *engine.Database
	rep  *repl.Replica
	rsrv *server.Server

	setupS      float64 // wall time of load + index build + replica bootstrap
	setupCPU    float64 // process CPU time, all threads, over the same steps
	bootstrapS  float64 // replica bootstrap alone, wall time
	heapPerRow  float64 // live heap bytes per loaded row (table + indexes), measured untimed
	tableRows   int
	closedParts bool
}

// cpuSeconds is the user and system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// newEngine builds a TIP-enabled database whose NOW is pinned.
func newEngine() (*engine.Database, *core.Blade) {
	reg := blade.NewRegistry()
	b := core.MustRegister(reg)
	db := engine.New(reg)
	db.SetClock(func() temporal.Chronon { return bench.PinnedNow })
	return db, b
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setup loads the rows into a fresh primary, builds the indexes, makes
// the primary durable when the workload asks, starts its server and,
// for replica_reads, bootstraps and serves a replica. Set-up is timed,
// in wall and in CPU time, over the load, the index build and the
// replica bootstrap; the checkpoint that makes the primary durable is
// left out because its fsync time follows the host disk, not the
// database.
func setup(s spec, rows []workload.Prescription, dir string) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &cluster{
		dir:      dir,
		walPath:  filepath.Join(dir, "wal.log"),
		snapPath: filepath.Join(dir, "snapshot.tipdb"),
		durable:  s.durable,
	}
	c.pdb, c.blade = newEngine()
	heap0 := liveHeap()
	start := time.Now()
	cpu0 := cpuSeconds()
	sess := c.pdb.NewSession()
	if err := workload.LoadTIP(sess, c.blade, rows); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	for _, ddl := range []string{
		`CREATE INDEX rx_valid ON Prescription (valid) USING PERIOD`,
		`CREATE INDEX rx_patient ON Prescription (patient)`,
	} {
		if _, err := sess.Exec(ddl, nil); err != nil {
			return nil, fmt.Errorf("index: %w", err)
		}
	}
	loadS := time.Since(start).Seconds()
	c.setupCPU = cpuSeconds() - cpu0
	if heap1 := liveHeap(); heap1 > heap0 {
		c.heapPerRow = float64(heap1-heap0) / float64(len(rows))
	}
	if s.durable {
		c.pdb.SetDurability(walPolicy, 0)
		if err := c.pdb.EnableWAL(c.walPath); err != nil {
			return nil, err
		}
		if err := c.pdb.Checkpoint(c.snapPath); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
	}
	var opts []server.Option
	if s.replica {
		c.prim = repl.NewPrimary(c.pdb, c.walPath)
		opts = append(opts, server.WithReplication(c.prim))
	}
	psrv, err := server.Listen(c.pdb, "127.0.0.1:0", opts...)
	if err != nil {
		c.close()
		return nil, err
	}
	c.psrv = psrv
	if s.replica {
		bootStart := time.Now()
		bootCPU0 := cpuSeconds()
		c.rdb, _ = newEngine()
		c.rep = repl.StartReplica(c.rdb, psrv.Addr(), repl.WithReplicaName("perfbench-r1"))
		rsrv, err := server.Listen(c.rdb, "127.0.0.1:0", server.WithReplStatus(c.rep.Status))
		if err != nil {
			c.close()
			return nil, err
		}
		c.rsrv = rsrv
		loaded := c.rdb.Metrics().Counter("repl.snapshots_loaded")
		for loaded.Load() == 0 {
			if time.Since(bootStart) > bootstrapWait {
				c.close()
				return nil, fmt.Errorf("replica loaded no snapshot within %s", bootstrapWait)
			}
			time.Sleep(100 * time.Microsecond)
		}
		if !c.rep.WaitForSeq(c.pdb.WALSeq(), bootstrapWait) {
			c.close()
			return nil, fmt.Errorf("replica did not converge on the primary")
		}
		c.bootstrapS = time.Since(bootStart).Seconds()
		c.setupCPU += cpuSeconds() - bootCPU0
	}
	c.setupS = loadS + c.bootstrapS
	c.tableRows = len(rows)
	return c, nil
}

// close stops the servers and the replica and detaches the WAL, leaving
// the files in place for the recovery check. Safe to call twice.
func (c *cluster) close() {
	if c.closedParts {
		return
	}
	c.closedParts = true
	if c.rsrv != nil {
		_ = c.rsrv.Close()
	}
	if c.rep != nil {
		c.rep.Close()
	}
	if c.psrv != nil {
		_ = c.psrv.Close()
	}
	if c.durable {
		_ = c.pdb.DisableWAL()
	}
}

// releasePrimary closes the cluster and drops the primary database, so
// the checks that follow a pass reuse its memory. The replica database,
// if any, stays readable.
func (c *cluster) releasePrimary() {
	c.close()
	c.pdb, c.prim, c.psrv = nil, nil, nil
	runtime.GC()
}

// remove closes the cluster and deletes its files.
func (c *cluster) remove() {
	c.close()
	_ = os.RemoveAll(c.dir)
}

// replicaAddrs lists the replica servers a Router should read from.
func (c *cluster) replicaAddrs() []string {
	if c.rsrv == nil {
		return nil
	}
	return []string{c.rsrv.Addr()}
}
