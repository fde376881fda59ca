// Package core is URSA's public façade: it assembles a complete block
// store — machines with simulated SSDs and HDDs, primary and backup chunk
// servers, per-HDD journals, a master, and a simulated network fabric —
// and hands out client portals. This is the system the paper's evaluation
// runs: the same cluster can be built in SSD-HDD-hybrid, SSD-only
// (Ursa-SSD), or HDD-only mode (§6).
package core

import (
	"fmt"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/chunkserver"
	"ursa/internal/client"
	"ursa/internal/clock"
	"ursa/internal/journal"
	"ursa/internal/master"
	"ursa/internal/metrics"
	"ursa/internal/objstore"
	"ursa/internal/scrub"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// Mode selects where replicas live (§6: the three tested replication
// modes).
type Mode int

// Replication modes.
const (
	// Hybrid stores primaries on SSD and backups on HDD behind journals —
	// the paper's contribution.
	Hybrid Mode = iota
	// SSDOnly stores all replicas on SSDs (Ursa-SSD).
	SSDOnly
	// HDDOnly stores all replicas on HDDs without journals.
	HDDOnly
)

func (m Mode) String() string {
	switch m {
	case Hybrid:
		return "hybrid"
	case SSDOnly:
		return "ssd-only"
	default:
		return "hdd-only"
	}
}

// Options parameterizes a cluster.
type Options struct {
	// Machines is the number of storage machines.
	Machines int
	// SSDsPerMachine / HDDsPerMachine set per-machine device counts
	// (paper hardware: 2 PCIe SSDs, 8 HDDs).
	SSDsPerMachine int
	HDDsPerMachine int
	// Mode selects the replication mode.
	Mode Mode
	// Clock drives all simulated time; tests pass a scaled clock.
	Clock clock.Clock
	// NetLatency is the one-way propagation delay.
	NetLatency time.Duration
	// NICRate is each machine's NIC bandwidth in bytes/second per
	// direction (10 GbE ≈ 1.25e9). 0 = unlimited.
	NICRate float64
	// Replication is replicas per chunk (default 3).
	Replication int
	// SSDModel / HDDModel override device models (zero value = defaults).
	SSDModel simdisk.SSDModel
	HDDModel simdisk.HDDModel
	// SSDCapacity / HDDCapacity shrink devices for tests (0 = model
	// default). Smaller devices keep sparse-store page maps cheap.
	SSDCapacity int64
	HDDCapacity int64
	// JournalFraction is the SSD share reserved for journals (paper: 1/10).
	JournalFraction float64
	// HDDJournal enables the overflow journal at each HDD's tail (§3.2).
	HDDJournal bool
	// HDDJournalSize bounds the overflow journal (0 = 1/16 of the HDD).
	HDDJournalSize int64
	// ReplTimeout / CallTimeout are the protocol timeouts.
	ReplTimeout time.Duration
	CallTimeout time.Duration
	// IOTimeout is the client's end-to-end budget per ReadAt/WriteAt (0 =
	// the client default derived from CallTimeout and its retry count).
	IOTimeout time.Duration
	// Metrics collects per-stage latency breadcrumbs cluster-wide: every
	// server and client feeds the same registry, so one table decomposes
	// where an I/O's time went. nil = a fresh registry.
	Metrics *metrics.Registry
	// Masters is the number of master replicas (default 1, the unreplicated
	// configuration). With more, the metadata service runs the replication
	// protocol: the primary ships its op log to hot standbys and a standby
	// promotes itself — bumping the fencing epoch — when the primary dies.
	Masters int
	// MasterPrimacyTTL is the replicated masters' primacy lease (0 = the
	// master default). Failover blackout scales with it.
	MasterPrimacyTTL time.Duration
	// LeaseTTL is the vdisk lease duration.
	LeaseTTL time.Duration
	// WriteRateLimit is the master-imposed per-client write budget.
	WriteRateLimit float64
	// BypassThreshold is Tj (default 64 KB); TinyThreshold is Tc (8 KB).
	BypassThreshold int
	TinyThreshold   int
	// ServerMaxInflight bounds concurrent handlers per connection on every
	// chunk server (0 = transport default) — the server-side admission
	// depth the hotchunk bench sweeps.
	ServerMaxInflight int
	// SerialApply disables per-chunk write pipelining on every chunk
	// server (the locked baseline; see chunkserver.Config.SerialApply).
	SerialApply bool
	// ScrubEnable starts one background scrubber per machine, sweeping all
	// of the machine's chunk servers for silent corruption.
	ScrubEnable bool
	// ScrubConfig tunes the scrubbers (zero value = scrub.DefaultConfig;
	// a nil Metrics field inherits the cluster registry).
	ScrubConfig scrub.Config
	// ObjstoreModel overrides the simulated object store's latency and
	// bandwidth model (nil = objstore.DefaultModel; point at
	// objstore.TestModel() for the near-free protocol-test shape).
	ObjstoreModel *objstore.Model
	// ColdGCInterval starts the master's background cold-tier GC loop on
	// that cadence (0 = no loop; tests and benches call RunColdGC
	// directly).
	ColdGCInterval time.Duration
}

func (o *Options) fillDefaults() {
	if o.Machines <= 0 {
		o.Machines = 4
	}
	if o.SSDsPerMachine <= 0 {
		o.SSDsPerMachine = 2
	}
	if o.HDDsPerMachine <= 0 {
		o.HDDsPerMachine = 8
	}
	if o.Clock == nil {
		o.Clock = clock.Realtime
	}
	if o.Replication <= 0 {
		o.Replication = 3
	}
	if o.SSDModel.Capacity == 0 {
		o.SSDModel = simdisk.DefaultSSD()
	}
	if o.HDDModel.Capacity == 0 {
		o.HDDModel = simdisk.DefaultHDD()
	}
	if o.SSDCapacity > 0 {
		o.SSDModel.Capacity = o.SSDCapacity
	}
	if o.HDDCapacity > 0 {
		o.HDDModel.Capacity = o.HDDCapacity
	}
	if o.JournalFraction <= 0 {
		o.JournalFraction = 0.1
	}
	if o.HDDJournalSize <= 0 {
		o.HDDJournalSize = o.HDDModel.Capacity / 16
	}
	if o.ReplTimeout <= 0 {
		o.ReplTimeout = 500 * time.Millisecond
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 2 * time.Second
	}
	if o.Metrics == nil {
		o.Metrics = metrics.NewRegistry()
	}
	if o.Masters <= 0 {
		o.Masters = 1
	}
}

// Machine is one storage machine: devices, servers, and a shared NIC.
// Every device sits behind a FaultInjector (a pass-through until armed);
// SSDs/HDDs keep the raw models, SSDFaults/HDDFaults are what the stores
// and journals actually run on — chaos tests arm faults there.
type Machine struct {
	Name      string
	SSDs      []*simdisk.SSD
	HDDs      []*simdisk.HDD
	SSDFaults []*simdisk.FaultInjector
	HDDFaults []*simdisk.FaultInjector
	// JournalRegions locates every journal region on this machine's
	// devices, so a fault can target one journal (its byte range on the
	// shared SSD) instead of the whole device.
	JournalRegions []JournalRegion
	Servers        []*chunkserver.Server
	// Scrubber is the machine's background integrity sweep (nil unless
	// Options.ScrubEnable).
	Scrubber *scrub.Scrubber
	jsets    []*journal.Set

	nicIn, nicOut *transport.TokenBucket
}

// JournalRegion names one journal's byte region on a machine device.
type JournalRegion struct {
	Server string // owning backup server address
	Name   string // journal name as registered with the set
	Disk   *simdisk.FaultInjector
	Base   int64
	Size   int64
	HDD    bool // overflow journal on the backup HDD itself
}

// JournalSets returns the machine's backup journal sets (hybrid mode).
func (m *Machine) JournalSets() []*journal.Set { return m.jsets }

// Cluster is an assembled URSA deployment.
type Cluster struct {
	opts     Options
	clk      clock.Clock
	Net      *transport.SimNet
	Master   *master.Master // Masters[0]; the bootstrap primary
	Masters  []*master.Master
	Machines []*Machine
	// Objstore is the cluster's simulated object store — the cold tier's
	// backing service, on its own fabric node so chaos can partition it.
	Objstore *objstore.Store

	masterAddrs []string
	servers     map[string]*chunkserver.Server
	clients     []*client.Client
	objRPC      *transport.Server
}

// MasterAddr is the (first) master's fabric address; replicas are
// "master-1", "master-2", … in promotion-priority order.
const MasterAddr = "master"

// ObjstoreAddr is the simulated object store's fabric address.
const ObjstoreAddr = "objstore"

// New builds and starts a cluster.
func New(opts Options) (*Cluster, error) {
	opts.fillDefaults()
	c := &Cluster{
		opts:    opts,
		clk:     opts.Clock,
		Net:     transport.NewSimNet(opts.Clock, opts.NetLatency),
		servers: make(map[string]*chunkserver.Server),
	}

	// The object store comes up first: every master's config points at it
	// (snapshot flush targets, GC). Unlimited NIC — the latency/bandwidth
	// model inside the store is the service's own contention model.
	model := objstore.DefaultModel()
	if opts.ObjstoreModel != nil {
		model = *opts.ObjstoreModel
	}
	c.Objstore = objstore.New(opts.Clock, model)
	c.Objstore.SetMetrics(opts.Metrics)
	ol, err := c.Net.Listen(ObjstoreAddr, transport.NodeConfig{})
	if err != nil {
		return nil, err
	}
	c.objRPC = transport.Serve(ol, c.Objstore.Handler)

	c.masterAddrs = append(c.masterAddrs, MasterAddr)
	for i := 1; i < opts.Masters; i++ {
		c.masterAddrs = append(c.masterAddrs, fmt.Sprintf("%s-%d", MasterAddr, i))
	}
	for i := range c.masterAddrs {
		m, err := c.newMaster(i, false)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Masters = append(c.Masters, m)
	}
	c.Master = c.Masters[0]

	for i := 0; i < opts.Machines; i++ {
		m, err := c.buildMachine(i)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Machines = append(c.Machines, m)
	}
	return c, nil
}

// newMaster builds and serves the master at rank i (unlimited NIC: masters
// are off the data path). join makes it start as a standby regardless of
// rank — the healed-after-crash path, where resurrecting the bootstrap
// epoch would briefly split primacy.
func (c *Cluster) newMaster(i int, join bool) (*master.Master, error) {
	addr := c.masterAddrs[i]
	ml, err := c.Net.Listen(addr, transport.NodeConfig{})
	if err != nil {
		return nil, err
	}
	var peers []string
	if len(c.masterAddrs) > 1 {
		peers = append([]string(nil), c.masterAddrs...)
	}
	m := master.New(master.Config{
		Addr:           addr,
		Clock:          c.opts.Clock,
		Dialer:         c.Net.Dialer(addr, transport.NodeConfig{}),
		Replication:    c.opts.Replication,
		LeaseTTL:       c.opts.LeaseTTL,
		WriteRateLimit: c.opts.WriteRateLimit,
		RPCTimeout:     c.opts.CallTimeout,
		HybridMode:     c.opts.Mode == Hybrid,
		Metrics:        c.opts.Metrics,
		Peers:          peers,
		PrimacyTTL:     c.opts.MasterPrimacyTTL,
		JoinStandby:    join,
		ObjstoreAddr:   ObjstoreAddr,
		GCInterval:     c.opts.ColdGCInterval,
	})
	m.Serve(ml)
	return m, nil
}

// buildMachine assembles machine i: devices, servers per device, journal
// sets wiring backup HDDs to SSD journal regions, and master registration.
func (c *Cluster) buildMachine(i int) (*Machine, error) {
	opts := &c.opts
	m := &Machine{
		Name:   fmt.Sprintf("m%d", i),
		nicIn:  transport.NewTokenBucket(c.clk, opts.NICRate),
		nicOut: transport.NewTokenBucket(c.clk, opts.NICRate),
	}
	nodeCfg := transport.NodeConfig{SharedIn: m.nicIn, SharedOut: m.nicOut}

	for j := 0; j < opts.SSDsPerMachine; j++ {
		ssd := simdisk.NewSSD(opts.SSDModel, c.clk)
		fi := simdisk.NewFaultInjector(ssd, c.clk)
		fi.SetMetrics(opts.Metrics)
		m.SSDs = append(m.SSDs, ssd)
		m.SSDFaults = append(m.SSDFaults, fi)
	}
	for k := 0; k < opts.HDDsPerMachine; k++ {
		hdd := simdisk.NewHDD(opts.HDDModel, c.clk)
		fi := simdisk.NewFaultInjector(hdd, c.clk)
		fi.SetMetrics(opts.Metrics)
		m.HDDs = append(m.HDDs, hdd)
		m.HDDFaults = append(m.HDDFaults, fi)
	}

	// Primary-capable servers: one per SSD (hybrid and SSD-only modes), or
	// one per HDD in HDD-only mode.
	switch opts.Mode {
	case Hybrid:
		if err := c.addSSDServers(m, nodeCfg, true); err != nil {
			return nil, err
		}
		if err := c.addBackupServers(m, nodeCfg); err != nil {
			return nil, err
		}
	case SSDOnly:
		if err := c.addSSDServers(m, nodeCfg, true); err != nil {
			return nil, err
		}
	case HDDOnly:
		for k, hdd := range m.HDDFaults {
			addr := fmt.Sprintf("%s/hdd%d", m.Name, k)
			store := blockstore.New(hdd, 0)
			srv := chunkserver.New(chunkserver.Config{
				Addr:        addr,
				Role:        chunkserver.RolePrimary,
				Clock:       c.clk,
				Dialer:      c.Net.Dialer(addr, nodeCfg),
				ReplTimeout: opts.ReplTimeout,
				Metrics:     opts.Metrics,
				MaxInflight: opts.ServerMaxInflight,
				SerialApply: opts.SerialApply,
				MasterAddr:  MasterAddr,
				MasterAddrs: c.masterAddrs,
			}, store, nil)
			if err := c.startServer(m, srv, nodeCfg); err != nil {
				return nil, err
			}
			c.Master.AddServer(addr, m.Name, true) // primary-capable
		}
	}

	if opts.ScrubEnable {
		scfg := opts.ScrubConfig
		if scfg.Metrics == nil {
			scfg.Metrics = opts.Metrics
		}
		targets := make([]scrub.Target, 0, len(m.Servers))
		for _, s := range m.Servers {
			targets = append(targets, s)
		}
		m.Scrubber = scrub.New(c.clk, scfg, targets...)
		m.Scrubber.Start()
	}
	return m, nil
}

// addSSDServers starts one primary server per SSD. In hybrid mode the tail
// JournalFraction of each SSD is reserved for the backup journals of this
// machine's HDDs.
func (c *Cluster) addSSDServers(m *Machine, nodeCfg transport.NodeConfig, register bool) error {
	opts := &c.opts
	for j, ssd := range m.SSDFaults {
		limit := ssd.Size()
		if opts.Mode == Hybrid {
			limit = util.AlignDown(int64(float64(ssd.Size())*(1-opts.JournalFraction)), util.ChunkSize)
		}
		addr := fmt.Sprintf("%s/ssd%d", m.Name, j)
		store := blockstore.New(ssd, limit)
		srv := chunkserver.New(chunkserver.Config{
			Addr:        addr,
			Role:        chunkserver.RolePrimary,
			Clock:       c.clk,
			Dialer:      c.Net.Dialer(addr, nodeCfg),
			ReplTimeout: opts.ReplTimeout,
			Metrics:     opts.Metrics,
			MaxInflight: opts.ServerMaxInflight,
			SerialApply: opts.SerialApply,
			MasterAddr:  MasterAddr,
			MasterAddrs: c.masterAddrs,
		}, store, nil)
		if err := c.startServer(m, srv, nodeCfg); err != nil {
			return err
		}
		if register {
			c.Master.AddServer(addr, m.Name, true)
		}
	}
	return nil
}

// addBackupServers starts one backup server per HDD, each with a journal
// set: an SSD journal region carved from a co-located SSD plus (optionally)
// an overflow journal at the HDD's own tail (§3.2).
func (c *Cluster) addBackupServers(m *Machine, nodeCfg transport.NodeConfig) error {
	opts := &c.opts
	// Journal space on each SSD is split evenly among the HDDs it backs.
	ssdJournalSpace := int64(float64(opts.SSDModel.Capacity) * opts.JournalFraction)
	hddsPerSSD := (opts.HDDsPerMachine + opts.SSDsPerMachine - 1) / opts.SSDsPerMachine
	perHDDJournal := util.AlignDown(ssdJournalSpace/int64(hddsPerSSD), util.SectorSize)

	for k, hdd := range m.HDDFaults {
		addr := fmt.Sprintf("%s/hdd%d", m.Name, k)
		storeLimit := hdd.Size()
		if opts.HDDJournal {
			storeLimit = util.AlignDown(hdd.Size()-opts.HDDJournalSize, util.ChunkSize)
		}
		store := blockstore.New(hdd, storeLimit)

		jcfg := journal.DefaultConfig()
		jcfg.Metrics = opts.Metrics // group-commit batch/flush distributions
		jset := journal.NewSet(c.clk, store, jcfg)
		ssdIdx := k % opts.SSDsPerMachine
		slot := int64(k / opts.SSDsPerMachine)
		ssd := m.SSDFaults[ssdIdx]
		base := util.AlignDown(int64(float64(ssd.Size())*(1-opts.JournalFraction)), util.ChunkSize) +
			slot*perHDDJournal
		jname := fmt.Sprintf("%s-jssd%d", addr, ssdIdx)
		jset.AddSSDJournal(jname, ssd, base, perHDDJournal)
		m.JournalRegions = append(m.JournalRegions, JournalRegion{
			Server: addr, Name: jname, Disk: ssd, Base: base, Size: perHDDJournal,
		})
		if opts.HDDJournal {
			hjSize := util.AlignDown(opts.HDDJournalSize, util.SectorSize)
			jset.AddHDDJournal(addr+"-jhdd", hdd, storeLimit, hjSize)
			m.JournalRegions = append(m.JournalRegions, JournalRegion{
				Server: addr, Name: addr + "-jhdd", Disk: hdd, Base: storeLimit,
				Size: hjSize, HDD: true,
			})
		}
		jset.Start()
		m.jsets = append(m.jsets, jset)

		srv := chunkserver.New(chunkserver.Config{
			Addr:            addr,
			Role:            chunkserver.RoleBackup,
			Clock:           c.clk,
			Dialer:          c.Net.Dialer(addr, nodeCfg),
			ReplTimeout:     opts.ReplTimeout,
			Metrics:         opts.Metrics,
			BypassThreshold: opts.BypassThreshold,
			MaxInflight:     opts.ServerMaxInflight,
			SerialApply:     opts.SerialApply,
			MasterAddr:      MasterAddr,
			MasterAddrs:     c.masterAddrs,
		}, store, jset)
		if err := c.startServer(m, srv, nodeCfg); err != nil {
			return err
		}
		c.Master.AddServer(addr, m.Name, false)
	}
	return nil
}

func (c *Cluster) startServer(m *Machine, srv *chunkserver.Server, nodeCfg transport.NodeConfig) error {
	l, err := c.Net.Listen(srv.Addr(), nodeCfg)
	if err != nil {
		return err
	}
	srv.Serve(l)
	m.Servers = append(m.Servers, srv)
	c.servers[srv.Addr()] = srv
	return nil
}

// Server returns the chunk server at addr, or nil.
func (c *Cluster) Server(addr string) *chunkserver.Server { return c.servers[addr] }

// ServerAddrs lists all chunk-server addresses.
func (c *Cluster) ServerAddrs() []string {
	addrs := make([]string, 0, len(c.servers))
	for _, m := range c.Machines {
		for _, s := range m.Servers {
			addrs = append(addrs, s.Addr())
		}
	}
	return addrs
}

// NewClient creates a client portal on its own fabric node (a "VMM host").
func (c *Cluster) NewClient(name string) *client.Client {
	cfg := transport.NodeConfig{InRate: c.opts.NICRate, OutRate: c.opts.NICRate}
	cl := client.New(client.Config{
		Name:          name,
		MasterAddr:    MasterAddr,
		MasterAddrs:   c.masterAddrs,
		Clock:         c.clk,
		Dialer:        c.Net.Dialer(name, cfg),
		TinyThreshold: c.opts.TinyThreshold,
		CallTimeout:   c.opts.CallTimeout,
		IOTimeout:     c.opts.IOTimeout,
		Metrics:       c.opts.Metrics,
	})
	c.clients = append(c.clients, cl)
	return cl
}

// CrashServer makes a chunk server unreachable (its process/machine died,
// from the protocol's perspective).
func (c *Cluster) CrashServer(addr string) { c.Net.Crash(addr) }

// RestartServer brings a crashed server's node back.
func (c *Cluster) RestartServer(addr string) { c.Net.Restart(addr) }

// MasterAddrs lists the master endpoints in promotion-priority order.
func (c *Cluster) MasterAddrs() []string { return append([]string(nil), c.masterAddrs...) }

// KillMaster crashes master i: its fabric node drops and its process
// stops. With replicas, a standby notices the silence and promotes itself
// after roughly one primacy TTL.
func (c *Cluster) KillMaster(i int) {
	c.Net.Crash(c.masterAddrs[i])
	c.Masters[i].Close()
}

// HealMaster restarts a killed master as a fresh process joining as a
// standby: it rejoins with no state and catches up from the current
// primary's log.
func (c *Cluster) HealMaster(i int) error {
	c.Net.Restart(c.masterAddrs[i])
	m, err := c.newMaster(i, true)
	if err != nil {
		return err
	}
	c.Masters[i] = m
	if i == 0 {
		c.Master = m
	}
	return nil
}

// PrimaryMaster returns the live master currently claiming primacy (the
// highest epoch wins a transient dual claim), or nil during a blackout.
func (c *Cluster) PrimaryMaster() *master.Master {
	var best *master.Master
	for i, m := range c.Masters {
		if m == nil || c.Net.Down(c.masterAddrs[i]) || !m.IsPrimary() {
			continue
		}
		if best == nil || m.Epoch() > best.Epoch() {
			best = m
		}
	}
	return best
}

// Close shuts the whole cluster down.
func (c *Cluster) Close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, m := range c.Masters {
		if m != nil {
			m.Close()
		}
	}
	if c.objRPC != nil {
		c.objRPC.Close()
	}
	for _, m := range c.Machines {
		// Scrubbers first: they probe through the servers and must not
		// race a closing server or store.
		if m.Scrubber != nil {
			m.Scrubber.Close()
		}
		for _, s := range m.Servers {
			s.Close()
		}
		for _, d := range m.SSDs {
			d.Close()
		}
		for _, d := range m.HDDs {
			d.Close()
		}
	}
}

// Mode returns the cluster's replication mode.
func (c *Cluster) Mode() Mode { return c.opts.Mode }

// Clock returns the cluster clock.
func (c *Cluster) Clock() clock.Clock { return c.clk }

// Metrics returns the cluster-wide stage-latency registry.
func (c *Cluster) Metrics() *metrics.Registry { return c.opts.Metrics }
