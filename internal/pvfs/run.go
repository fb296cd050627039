package pvfs

import (
	"fmt"
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/fault"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/sim"
)

// Options configure a pvfs-test style run on Testbed 1: node 2 hosts the
// iods (one per GbE port), node 1 hosts the compute processes.
type Options struct {
	P    *cost.Params
	Feat ioat.Features
	Seed uint64

	IODs    int
	Clients int
	// Region overrides the per-client region size; 0 means the paper's
	// 2N megabytes for N iods.
	Region int
	Write  bool

	// Check runs the simulation under the runtime invariant checker and
	// panics on any violation at the end of the run.
	Check bool

	// Strict upgrades Check to fail-fast (panic at the violating event).
	Strict bool

	// Fault, when non-nil, runs the file system under the given fault
	// plan (see internal/fault).
	Fault *fault.Plan

	// Obs attaches observability sinks to the cluster (see host.Observability).
	Obs host.Observability

	Warm, Meas time.Duration
}

func (o *Options) defaults() {
	if o.P == nil {
		o.P = cost.Default()
	}
	if o.IODs == 0 {
		o.IODs = 6
	}
	if o.Clients == 0 {
		o.Clients = o.IODs
	}
	if o.Region == 0 {
		o.Region = 2 * o.IODs * cost.MB
	}
	if o.Warm == 0 {
		o.Warm = 60 * time.Millisecond
	}
	if o.Meas == 0 {
		o.Meas = 240 * time.Millisecond
	}
}

// Metrics is one measured pvfs-test configuration.
type Metrics struct {
	// MBps is aggregate client goodput in 10^6 bytes per second, the
	// unit the paper plots.
	MBps      float64
	ServerCPU float64
	ClientCPU float64
}

// Run executes the concurrent read or write benchmark of §6.2.
func Run(o Options) Metrics {
	o.defaults()
	var opts []host.Option
	switch {
	case o.Strict:
		opts = append(opts, host.WithStrictCheck())
	case o.Check:
		opts = append(opts, host.WithCheck())
	}
	if o.Fault != nil {
		opts = append(opts, host.WithFault(*o.Fault))
	}
	if o.Obs.Enabled() {
		opts = append(opts, host.WithObservability(o.Obs))
	}
	cl := host.NewCluster(o.P, o.Seed, opts...)
	defer cl.Close()
	compute := cl.Add("compute", o.Feat, 6)
	server := cl.Add("server", o.Feat, 6)
	sys := New(server, o.IODs, 0)

	for i := 0; i < o.Clients; i++ {
		i := i
		compute.CPU.RegisterThread()
		cl.S.Spawn(fmt.Sprintf("compute%d", i), func(p *sim.Proc) {
			c := NewClient(p, compute, sys)
			meta := c.Create(p, fmt.Sprintf("data%d", i), o.Region)
			buf := compute.Buf(o.Region)
			for {
				if o.Write {
					c.Write(p, meta, 0, o.Region, buf)
				} else {
					c.Read(p, meta, 0, o.Region, buf)
				}
			}
		})
	}

	// Goodput is measured at the data-receiving node's transport (the
	// compute node for reads, the server node for writes); the region
	// granularity of the client loop is too coarse for the window.
	recvSide := compute
	if o.Write {
		recvSide = server
	}
	cl.S.RunUntil(sim.Time(o.Warm))
	cl.ResetMeters()
	mark := recvSide.Stack.BytesReceived
	cl.S.RunUntil(sim.Time(o.Warm + o.Meas))

	m := Metrics{
		MBps:      float64(recvSide.Stack.BytesReceived-mark) / o.Meas.Seconds() / 1e6,
		ServerCPU: server.CPU.Utilization(),
		ClientCPU: compute.CPU.Utilization(),
	}
	cl.MustVerify()
	return m
}
