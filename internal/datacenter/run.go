package datacenter

import (
	"fmt"

	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/msg"
	"ioatsim/internal/sim"
	"ioatsim/internal/workload"
)

// RunTwoTier builds and measures the §5.2 configuration: external
// clients -> proxy tier -> web tier, both tiers on Testbed-1-class nodes
// with the same I/OAT feature set, clients on plain machines.
func RunTwoTier(o Options) Metrics {
	o.defaults()
	cl := host.NewCluster(o.P, o.Seed, o.hostOpts()...)
	defer cl.Close()
	proxyNode := cl.Add("proxy", o.Feat, 6)
	webNode := cl.Add("web", o.Feat, 6)
	clients := cl.AddClients(o.ClientNodes, ioat.None())

	proxy := newTier(proxyNode, cl.Rand.Fork())
	web := newTier(webNode, cl.Rand.Fork())
	catalog := buildCatalog(cl, web, o)
	cache := newContentCache(proxyNode, o.CacheBytes)

	startWebTier(web)
	startProxyTier(proxy, web, cache, o)

	var completed int64
	for ci, cn := range clients {
		for t := 0; t < o.ThreadsPerClient; t++ {
			trace := newTrace(cl, catalog, o)
			launchClient(cn, proxyNode, ci%6, fmt.Sprintf("c%d-%d", ci, t),
				trace, o.FileSize, &completed)
		}
	}

	return measure(cl, o, &completed, proxy, web, nil)
}

// RunEmulated builds the §5.2.3 configuration: Testbed-1 node 1 runs
// `threads` emulated proxy clients firing directly at the web server on
// node 2, both with the same feature set. The paper reports the client
// node's CPU.
func RunEmulated(o Options, threads int) Metrics {
	o.defaults()
	cl := host.NewCluster(o.P, o.Seed, o.hostOpts()...)
	defer cl.Close()
	clientNode := cl.Add("client", o.Feat, 6)
	webNode := cl.Add("web", o.Feat, 6)

	clientTier := newTier(clientNode, cl.Rand.Fork())
	web := newTier(webNode, cl.Rand.Fork())
	catalog := buildCatalog(cl, web, o)

	startWebTier(web)

	var completed int64
	for t := 0; t < threads; t++ {
		t := t
		trace := newTrace(cl, catalog, o)
		clientNode.CPU.RegisterThread()
		cl.S.Spawn(fmt.Sprintf("emu%d", t), func(p *sim.Proc) {
			// Cold path: dial on the setup proc, then hand the loop to a
			// continuation state machine (async.go) and let the proc die.
			conn := clientNode.Stack.Dial(p, webNode.Stack, "http", t%6, t%6)
			mc := msg.Wrap(conn)
			dst := clientNode.Buf(o.FileSize)
			startEmuWorker(cl.S.NewTask(p.Name()), clientNode, clientTier,
				mc, trace, dst, &completed)
		})
	}
	return measure(cl, o, &completed, nil, web, clientTier)
}

// buildCatalog generates the web tier's content: fixed-size documents,
// or a uniform size spread when configured.
func buildCatalog(cl *host.Cluster, web *Tier, o Options) *workload.Catalog {
	if o.SpreadMax > 0 {
		return workload.GenerateSpread(web.FS, cl.Rand.Fork(), "doc",
			o.FileCount, o.SpreadMin, o.SpreadMax)
	}
	return workload.GenerateUniform(web.FS, "doc", o.FileCount, o.FileSize)
}

// newTrace builds a per-thread request trace.
func newTrace(cl *host.Cluster, catalog *workload.Catalog, o Options) workload.Trace {
	if o.Alpha > 0 {
		return workload.NewZipf(cl.Rand.Fork(), catalog.Names, o.Alpha)
	}
	return &workload.SingleFile{Path: catalog.Names[0]}
}

// startWebTier runs the web server's accept loop; each connection gets a
// dedicated worker (the Apache worker model) running as a continuation
// state machine — startWebWorker schedules the same single start event
// the old per-connection Spawn did.
func startWebTier(web *Tier) {
	l := web.Node.Stack.Listen("http")
	web.Node.S.Spawn("web-accept", func(p *sim.Proc) {
		for i := 0; ; i++ {
			conn := l.Accept(p)
			web.Node.CPU.RegisterThread()
			startWebWorker(web, conn, fmt.Sprintf("web-worker%d", i))
		}
	})
}

// startProxyTier runs the proxy's accept loop; each client connection
// gets a worker holding a persistent backend connection to the web tier.
func startProxyTier(proxy, web *Tier, cache *contentCache, o Options) {
	l := proxy.Node.Stack.Listen("http")
	proxy.Node.S.Spawn("proxy-accept", func(p *sim.Proc) {
		for i := 0; ; i++ {
			conn := l.Accept(p)
			proxy.Node.CPU.RegisterThread()
			i := i
			proxy.Node.S.Spawn(fmt.Sprintf("proxy-worker%d", i), func(wp *sim.Proc) {
				startProxyWorker(wp, i, proxy, web, cache, msg.Wrap(conn), o)
			})
		}
	})
}

// launchClient starts one closed-loop client thread on a client node.
func launchClient(node, server *host.Node, port int, name string,
	trace workload.Trace, fileSize int, completed *int64) {
	node.CPU.RegisterThread()
	node.S.Spawn(name, func(p *sim.Proc) {
		conn := node.Stack.Dial(p, server.Stack, "http", 0, port)
		mc := msg.Wrap(conn)
		dst := node.Buf(fileSize)
		startClientWorker(node.S.NewTask(p.Name()), mc, trace, dst, completed)
	})
}

// measure runs the warm-up, resets the meters, runs the measurement
// window and collects the metrics.
func measure(cl *host.Cluster, o Options, completed *int64,
	proxy, web, client *Tier) Metrics {
	cl.S.RunUntil(sim.Time(o.Warm))
	cl.ResetMeters()
	mark := *completed
	cl.S.RunUntil(sim.Time(o.Warm + o.Meas))

	m := Metrics{Completed: *completed - mark}
	m.TPS = float64(m.Completed) / o.Meas.Seconds()
	if proxy != nil {
		m.ProxyCPU = proxy.Node.CPU.Utilization()
	}
	if web != nil {
		m.WebCPU = web.Node.CPU.Utilization()
	}
	if client != nil {
		m.ClientCPU = client.Node.CPU.Utilization()
	}
	cl.MustVerify()
	return m
}
