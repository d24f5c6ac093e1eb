package main

// sut.go is the only file of the benchmark that imports repro/internal/...:
// the adapter between the harness and the system under test. Everything the
// harness needs from the middleware — building the real-TCP deployment the
// way cmd/sensocial-server does, turning generated specs into items and
// checking what comes back, reading counts from the metrics registry, and
// the per-layer probes — goes through the functions below, so a later
// change to an internal API touches this file and nothing else. No Stats()
// struct is read: counts come from obs.Registry.Snapshot() by family name.

import (
	"bytes"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/core/server"
	"repro/internal/docstore"
	"repro/internal/geo"
	"repro/internal/mqtt"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/osn"
	"repro/internal/sensors"
	"repro/internal/vclock"
)

// wall is the one value through which the benchmark reads the wall clock
// and sleeps.
var wall = vclock.NewReal()

var (
	baseMono = wall.Now()        // carries the monotonic reading
	baseWall = baseMono.Round(0) // the same instant, wall clock only
)

// nowNs is nanoseconds since process start on the monotonic clock; every
// timestamp the harness takes or compares is on this axis.
func nowNs() int64 { return int64(wall.Since(baseMono)) }

func sleepNs(d int64) { wall.Sleep(time.Duration(d)) }

// stampTime puts a harness timestamp on the wire (an item's sample time, an
// action's time); stampOf reads it back exactly after JSON transport.
func stampTime(ns int64) time.Time { return baseWall.Add(time.Duration(ns)) }
func stampOf(t time.Time) int64    { return int64(t.Sub(baseWall)) }

// Item and Client are the two middleware types the workloads handle.
type (
	Item   = core.Item
	Client = mqtt.Client
)

// deployOpts selects what the deployment persists and where the harness
// observes it. All observers are optional.
type deployOpts struct {
	Persist bool
	// StreamTap and TriggerTap are broker-local subscriptions on
	// core.StreamDataFilter / core.DeviceTriggerFilter, installed before
	// the server attaches so they fire first: the instant the broker has
	// routed the message.
	StreamTap  func(topic string)
	TriggerTap func(topic string)
	// Hook is Manager.OnItem: after decode, queueing, registry and filter,
	// and (when persisting) the document-store insert.
	Hook func(Item)
	// Listener is the application endpoint, a wildcard core.Listener.
	Listener func(Item)
}

// deployment is the real-TCP system under test, built in-process exactly as
// cmd/sensocial-server builds it: one registry shared by broker and server,
// the broker serving a loopback listener, the server on the real clock with
// the European place database and default ingest sizing.
type deployment struct {
	metrics *obs.Registry
	broker  *mqtt.Broker
	mgr     *server.Manager
	ln      net.Listener
	wg      sync.WaitGroup
	serveEr error // written by the Serve goroutine, read after wg.Wait
}

func newDeployment(o deployOpts) (*deployment, error) {
	d := &deployment{metrics: obs.NewRegistry()}
	d.broker = mqtt.NewBroker(mqtt.BrokerOptions{Clock: wall, Metrics: d.metrics})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("mqtt listen: %w", err)
	}
	d.ln = ln
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.serveEr = d.broker.Serve(ln)
	}()
	if o.StreamTap != nil {
		tap := o.StreamTap
		if err := d.broker.SubscribeLocal(core.StreamDataFilter(), func(m mqtt.Message) { tap(m.Topic) }); err != nil {
			return nil, err
		}
	}
	if o.TriggerTap != nil {
		tap := o.TriggerTap
		if err := d.broker.SubscribeLocal(core.DeviceTriggerFilter(), func(m mqtt.Message) { tap(m.Topic) }); err != nil {
			return nil, err
		}
	}
	d.mgr, err = server.New(server.Options{
		Clock:        wall,
		Broker:       d.broker,
		Places:       geo.EuropeanCities(),
		PersistItems: o.Persist,
		Metrics:      d.metrics,
	})
	if err != nil {
		return nil, err
	}
	if o.Hook != nil {
		d.mgr.OnItem(o.Hook)
	}
	if o.Listener != nil {
		if err := d.mgr.RegisterListener(core.Wildcard, core.ListenerFunc(o.Listener)); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Close stops the server (draining accepted items), the broker and the
// accept loop, and waits for all three.
func (d *deployment) Close() error {
	err := d.mgr.Close()
	if e := d.broker.Close(); err == nil {
		err = e
	}
	if e := d.ln.Close(); err == nil {
		err = e
	}
	d.wg.Wait()
	if err == nil {
		err = d.serveEr
	}
	return err
}

// Dial opens one MQTT session to the broker over loopback TCP.
func (d *deployment) Dial(clientID string) (*Client, error) {
	conn, err := net.Dial("tcp", d.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	return mqtt.Connect(conn, mqtt.ClientOptions{ClientID: clientID, Clock: wall})
}

// RegisterUplinkPlan registers the plan's users and devices and installs the
// conditioned activity streams (which also pushes each a config trigger,
// as the server does for any remote stream; no device listens for it here).
func (d *deployment) RegisterUplinkPlan(p *uplinkPlan) error {
	for u := 0; u < p.Users; u++ {
		if err := d.mgr.RegisterDevice(p.UserIDs[u], p.DeviceIDs[u]); err != nil {
			return err
		}
	}
	for u := 0; u < p.Users; u++ {
		f := p.CondFriend[u]
		if f < 0 {
			continue
		}
		filter, err := core.NewFilter(uplinkCondition(p, f))
		if err != nil {
			return err
		}
		if err := d.mgr.CreateRemoteStream(core.StreamConfig{
			ID: p.StreamIDs[classActivity][u], DeviceID: p.DeviceIDs[u], UserID: p.UserIDs[u],
			Modality: sensors.ModalityAccelerometer, Granularity: core.GranularityClassified,
			Kind: core.KindContinuous, SampleInterval: time.Second, Filter: filter,
		}); err != nil {
			return err
		}
	}
	return nil
}

func uplinkCondition(p *uplinkPlan, friend int) core.Condition {
	return core.Condition{Modality: core.CtxPhysicalActivity, Operator: core.OpEquals,
		Value: "walking", UserID: p.UserIDs[friend]}
}

// RegisterTriggerPlan registers the plan's users with one device each.
func (d *deployment) RegisterTriggerPlan(p *triggerPlan) error {
	for u := 0; u < p.Users; u++ {
		if err := d.mgr.RegisterDevice(p.UserIDs[u], p.DeviceIDs[u]); err != nil {
			return err
		}
	}
	return nil
}

// Counters flattens the metrics registry: counters and gauges summed over
// their label values under the family name, histograms as <name>_count and
// <name>_sum. These are the documented sensocial_* families.
func (d *deployment) Counters() map[string]float64 {
	out := map[string]float64{}
	for _, f := range d.metrics.Snapshot() {
		for _, s := range f.Samples {
			if f.Type == "histogram" {
				out[f.Name+"_count"] += float64(s.Count)
				out[f.Name+"_sum"] += s.Sum
				continue
			}
			out[f.Name] += s.Value
		}
	}
	return out
}

// ItemDocs is the number of documents in the server's items collection.
func (d *deployment) ItemDocs() int { return d.mgr.Store().Collection("items").Len() }

// streamTopic is the MQTT topic a device uploads on.
func streamTopic(deviceID string) string { return core.StreamDataTopic(deviceID) }

// uplinkCodec builds, encodes and checks the items of an uplink plan.
type uplinkCodec struct {
	p      *uplinkPlan
	topics []string
}

func newUplinkCodec(p *uplinkPlan) *uplinkCodec {
	c := &uplinkCodec{p: p, topics: make([]string, p.Users)}
	for u := range c.topics {
		c.topics[u] = streamTopic(p.DeviceIDs[u])
	}
	return c
}

// Item builds the item of spec s sampled at harness time at.
func (c *uplinkCodec) Item(s opSpec, at int64) Item {
	it := Item{
		StreamID: c.p.StreamIDs[s.Class][s.User],
		DeviceID: c.p.DeviceIDs[s.User],
		UserID:   c.p.UserIDs[s.User],
		Time:     stampTime(at),
	}
	switch s.Class {
	case classActivity:
		it.Modality = sensors.ModalityAccelerometer
		it.Granularity = core.GranularityClassified
		it.Classified = s.Label
		it.Context = core.Context{core.CtxPlace: s.Place, core.CtxAudioEnvironment: s.Audio}
	case classAccel:
		it.Modality = sensors.ModalityAccelerometer
		it.Granularity = core.GranularityRaw
		it.Raw = s.Raw
	case classFix:
		it.Modality = sensors.ModalityLocation
		it.Granularity = core.GranularityRaw
		it.Raw = s.Raw
	}
	return it
}

// Matches reports whether a delivered item is exactly the one generated
// from s (the sample time is checked by the caller, which uses it to find s).
func (c *uplinkCodec) Matches(it *Item, s opSpec) bool {
	if it.StreamID != c.p.StreamIDs[s.Class][s.User] || it.DeviceID != c.p.DeviceIDs[s.User] ||
		it.UserID != c.p.UserIDs[s.User] || it.Classified != s.Label || !bytes.Equal(it.Raw, s.Raw) ||
		it.Action != nil || it.AggregateID != "" {
		return false
	}
	switch s.Class {
	case classActivity:
		return it.Modality == sensors.ModalityAccelerometer && it.Granularity == core.GranularityClassified &&
			len(it.Context) == 2 && it.Context[core.CtxPlace] == s.Place && it.Context[core.CtxAudioEnvironment] == s.Audio
	case classAccel:
		return it.Modality == sensors.ModalityAccelerometer && it.Granularity == core.GranularityRaw && len(it.Context) == 0
	default:
		return it.Modality == sensors.ModalityLocation && it.Granularity == core.GranularityRaw && len(it.Context) == 0
	}
}

// Publish encodes the item and uploads it at QoS 0, as mobile.upload does.
// between, when set, receives the instant between encode and publish.
func (c *uplinkCodec) Publish(cl *Client, s opSpec, at int64, between *int64) error {
	payload, err := c.Item(s, at).Encode()
	if err != nil {
		return err
	}
	if between != nil {
		*between = nowNs()
	}
	return cl.Publish(c.topics[s.User], payload, 0, false)
}

// triggerCodec builds the actions of a trigger plan, runs the device stubs
// and checks the joined items.
type triggerCodec struct {
	p      *triggerPlan
	topics []string
}

func newTriggerCodec(p *triggerPlan) *triggerCodec {
	c := &triggerCodec{p: p, topics: make([]string, p.Users)}
	for u := range c.topics {
		c.topics[u] = streamTopic(p.DeviceIDs[u])
	}
	return c
}

// Act hands action s, performed at harness time at, to the server's OSN
// entry point (what the Facebook/Twitter plug-ins call).
func (c *triggerCodec) Act(d *deployment, s actionSpec, at int64) {
	d.mgr.OnOSNAction(osn.Action{ID: s.ID, Network: "facebook", UserID: c.p.UserIDs[s.User],
		Type: osn.ActionType(s.Type), Text: s.Text, Time: stampTime(at)})
}

// StartStub connects user u's passive device: its own TCP session,
// subscribed at QoS 1 to its trigger topic. On a sense trigger it decodes
// the trigger, samples nothing (device-side sensing is out of scope) and
// uploads one classified location item carrying the action. observe, when
// set, receives the action index with the handler's entry and exit times.
func (c *triggerCodec) StartStub(d *deployment, u int, observe func(op int, entry, exit int64), fail func(error)) (*Client, error) {
	cl, err := d.Dial(c.p.DeviceIDs[u])
	if err != nil {
		return nil, err
	}
	handler := func(m mqtt.Message) {
		entry := nowNs()
		trig, err := core.DecodeTrigger(m.Payload)
		if err != nil || trig.Kind != core.TriggerSense || trig.Action == nil {
			fail(fmt.Errorf("device %s: bad trigger: %v", c.p.DeviceIDs[u], err))
			return
		}
		payload, err := Item{
			StreamID: c.p.StreamIDs[u], DeviceID: c.p.DeviceIDs[u], UserID: c.p.UserIDs[u],
			Modality: sensors.ModalityLocation, Granularity: core.GranularityClassified,
			Time: trig.Action.Time, Classified: cityNames[c.p.City(u)], Action: trig.Action,
		}.Encode()
		if err == nil {
			err = cl.Publish(c.topics[u], payload, 0, false)
		}
		if err != nil {
			fail(err)
			return
		}
		if observe != nil {
			observe(parseActionID(trig.Action.ID), entry, nowNs())
		}
	}
	if err := cl.Subscribe(core.DeviceTriggerTopic(c.p.DeviceIDs[u]), 1, handler); err != nil {
		_ = cl.Close() // the subscribe error is the one to report
		return nil, err
	}
	return cl, nil
}

// Matches reports whether a delivered item is the join of action s with its
// user's device upload.
func (c *triggerCodec) Matches(it *Item, s actionSpec) bool {
	a := it.Action
	return a != nil && a.ID == s.ID && string(a.Type) == s.Type && a.Text == s.Text &&
		a.UserID == c.p.UserIDs[s.User] && it.UserID == c.p.UserIDs[s.User] &&
		it.DeviceID == c.p.DeviceIDs[s.User] && it.StreamID == c.p.StreamIDs[s.User] &&
		it.Classified == cityNames[c.p.City(s.User)] && it.Modality == sensors.ModalityLocation
}

// actionOf returns the id and time of the action a joined item carries
// ("" if it carries none).
func actionOf(it *Item) (id string, at int64) {
	if it.Action == nil {
		return "", 0
	}
	return it.Action.ID, stampOf(it.Action.Time)
}

// ---- probes ---------------------------------------------------------------

// probeSink keeps probe results alive so the compiler cannot drop the calls.
var probeSink int

// uplinkProbes are the per-layer probes run on an uplink plan's own inputs.
// They build their own idle deployment: persist says whether it stores items.
func uplinkProbes(p *uplinkPlan, persist bool) ([]probe, func() error, error) {
	codec := newUplinkCodec(p)
	const sample = 512
	items := make([]Item, sample)
	payloads := make([][]byte, sample)
	var bytesTotal int
	for i := range items {
		items[i] = codec.Item(p.Spec(i), int64(i)*1000)
		b, err := items[i].Encode()
		if err != nil {
			return nil, nil, err
		}
		payloads[i] = b
		bytesTotal += len(b)
	}
	delivered := make(chan struct{}, 1)
	d, err := newDeployment(deployOpts{Persist: persist, Listener: func(Item) {
		select {
		case delivered <- struct{}{}:
		default:
		}
	}})
	if err != nil {
		return nil, nil, err
	}
	if err := d.RegisterUplinkPlan(p); err != nil {
		return nil, nil, err
	}
	// One walking anchor's context, so the workload's condition evaluates
	// against a populated snapshot as it does in the run.
	var filter core.Filter
	ctx := core.Context{}
	for u := 0; u < p.Users; u++ {
		if f := p.CondFriend[u]; f >= 0 {
			filter, err = core.NewFilter(uplinkCondition(p, f))
			if err != nil {
				return nil, nil, err
			}
			ctx[core.Key(p.UserIDs[f], core.CtxPhysicalActivity)] = "walking"
			ctx[core.Key(p.UserIDs[f], core.CtxPlace)] = cityNames[p.City(f)]
			break
		}
	}
	pub, err := d.Dial("probe-pub")
	if err != nil {
		return nil, nil, err
	}
	router, err := routeProbeBroker(0)
	if err != nil {
		return nil, nil, err
	}
	// Items of unconditioned streams, for the in-flight probe: the idle
	// deployment holds no anchor context, so a conditioned item would never
	// reach the listener.
	var passing []Item
	for _, it := range items {
		if p.CondFriend[indexOfID(it.UserID)] < 0 {
			passing = append(passing, it)
		}
	}

	probes := []probe{
		{Name: "core.item_encode_ns", Run: timed(func(n int) {
			for i := 0; i < n; i++ {
				b, _ := items[i%sample].Encode()
				probeSink += len(b)
			}
		})},
		{Name: "core.item_decode_ns", Run: timed(func(n int) {
			for i := 0; i < n; i++ {
				it, _ := core.DecodeItem(payloads[i%sample])
				probeSink += len(it.StreamID)
			}
		})},
		{AllocName: "core.item_codec_allocs", Run: timed(func(n int) {
			for i := 0; i < n; i++ {
				b, _ := items[i%sample].Encode()
				it, _ := core.DecodeItem(b)
				probeSink += len(it.StreamID)
			}
		})},
		{Name: "mqtt.qos1_publish_us", Scale: 1000, Run: timed(func(n int) {
			for i := 0; i < n; i++ {
				// A topic nobody subscribes to: the call is the wire write
				// plus the broker's PUBACK, with no middleware work behind it.
				if err := pub.Publish("bench/probe", payloads[i%sample], 1, false); err != nil {
					probeSink--
				}
			}
		})},
		{Name: "mqtt.route_local_ns", AllocName: "mqtt.route_allocs", Run: timed(func(n int) {
			for i := 0; i < n; i++ {
				if err := router.PublishLocal(mqtt.Message{Topic: codec.topics[i%p.Users], Payload: payloads[i%sample]}); err != nil {
					probeSink--
				}
			}
		})},
		{Name: "ingest.enqueue_ns", MaxN: 20000, Run: func(n int) time.Duration {
			// Bursts below the queue depth, draining between bursts outside
			// the timer, so Ingest never hits the drop branch. The drain is
			// the full per-item processing, hence the cap on calls.
			var total int64
			for done := 0; done < n; {
				burst := min(256, n-done)
				start := nowNs()
				for i := 0; i < burst; i++ {
					if !d.mgr.Ingest(items[(done+i)%sample]) {
						probeSink--
					}
				}
				total += nowNs() - start
				done += burst
				d.waitIdle()
			}
			return time.Duration(total)
		}},
		{Name: "server.process_us", Scale: 1000, Run: func(n int) time.Duration {
			d.waitIdle()
			select {
			case <-delivered: // a token left over from the enqueue probe
			default:
			}
			start := nowNs()
			for i := 0; i < n; i++ {
				if d.mgr.Ingest(passing[i%len(passing)]) {
					<-delivered
				}
			}
			return time.Duration(nowNs() - start)
		}},
	}
	if len(filter.Conditions) > 0 {
		probes = append(probes, probe{Name: "core.filter_eval_ns", Run: timed(func(n int) {
			for i := 0; i < n; i++ {
				if filter.Eval(ctx) {
					probeSink++
				}
			}
		})})
	}
	if persist {
		probes = append(probes, docstoreProbes(d, p.UserIDs, p.City)...)
	}
	fixed := []probe{{Name: "core.item_bytes", Fixed: float64(bytesTotal) / sample, N: sample}}
	cleanup := func() error {
		err := pub.Close()
		if e := router.Close(); err == nil {
			err = e
		}
		if e := d.Close(); err == nil {
			err = e
		}
		return err
	}
	return append(probes, fixed...), cleanup, nil
}

// triggerProbes are the per-layer probes run on a trigger plan's inputs.
func triggerProbes(p *triggerPlan) ([]probe, func() error, error) {
	const sample = 256
	triggers := make([]core.Trigger, sample)
	payloads := make([][]byte, sample)
	for i := range triggers {
		s := p.Spec(i)
		a := osn.Action{ID: s.ID, Network: "facebook", UserID: p.UserIDs[s.User],
			Type: osn.ActionType(s.Type), Text: s.Text, Time: stampTime(int64(i) * 1000)}
		triggers[i] = core.Trigger{Kind: core.TriggerSense, DeviceID: p.DeviceIDs[s.User], Action: &a}
		b, err := triggers[i].Encode()
		if err != nil {
			return nil, nil, err
		}
		payloads[i] = b
	}
	d, err := newDeployment(deployOpts{Persist: true})
	if err != nil {
		return nil, nil, err
	}
	if err := d.RegisterTriggerPlan(p); err != nil {
		return nil, nil, err
	}
	router, err := routeProbeBroker(p.Users)
	if err != nil {
		return nil, nil, err
	}
	probes := []probe{
		{Name: "core.trigger_codec_ns", AllocName: "core.trigger_codec_allocs", Run: timed(func(n int) {
			for i := 0; i < n; i++ {
				b, _ := triggers[i%sample].Encode()
				t, _ := core.DecodeTrigger(b)
				probeSink += len(t.DeviceID)
			}
		})},
		{Name: "mqtt.route_local_ns", AllocName: "mqtt.route_allocs", Run: timed(func(n int) {
			for i := 0; i < n; i++ {
				if err := router.PublishLocal(mqtt.Message{Topic: core.DeviceTriggerTopic(p.DeviceIDs[i%p.Users]),
					Payload: payloads[i%sample], QoS: 1}); err != nil {
					probeSink--
				}
			}
		})},
	}
	probes = append(probes, docstoreProbes(d, p.UserIDs, p.City)...)
	cleanup := func() error {
		err := router.Close()
		if e := d.Close(); err == nil {
			err = e
		}
		return err
	}
	return probes, cleanup, nil
}

// routeProbeBroker is an idle broker carrying a workload's subscription
// population: the server's wildcard on the stream topics and one filter per
// device trigger topic, all with no-op handlers so the probe times matching
// and dispatch alone.
func routeProbeBroker(devices int) (*mqtt.Broker, error) {
	b := mqtt.NewBroker(mqtt.BrokerOptions{Clock: wall})
	nop := func(mqtt.Message) {}
	if err := b.SubscribeLocal(core.StreamDataFilter(), nop); err != nil {
		return nil, err
	}
	for u := 0; u < devices; u++ {
		if err := b.SubscribeLocal(core.DeviceTriggerTopic(fmt.Sprintf("d%05d", u)), nop); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// docstoreProbes time the three ways the workloads use the document store,
// at the deployment's registered population.
func docstoreProbes(d *deployment, userIDs []string, city func(int) int) []probe {
	scratch := docstore.NewStore().Collection("items")
	users := len(userIDs)
	return []probe{
		{Name: "docstore.insert_ns", AllocName: "docstore.insert_allocs", Run: timed(func(n int) {
			for i := 0; i < n; i++ {
				// The document shape server.DeliveryHub persists per item.
				if _, err := scratch.Insert(docstore.Doc{
					"stream": "activity-00001", "device": "d00001", "user": "u00001",
					"modality": sensors.ModalityAccelerometer, "granularity": "classified",
					"time": int64(i), "classified": "walking",
				}); err != nil {
					probeSink--
				}
			}
		})},
		{Name: "docstore.find_indexed_ns", Run: timed(func(n int) {
			for i := 0; i < n; i++ {
				ids, _ := d.mgr.DevicesOf(userIDs[i%users])
				probeSink += len(ids)
			}
		})},
		{Name: "docstore.update_geo_ns", Run: timed(func(n int) {
			for i := 0; i < n; i++ {
				u := i % users
				c := cityCentres[city(u)]
				pt := geo.Point{Lat: c[0] + float64(i%97)/10000, Lon: c[1]}
				if err := d.mgr.UpdateUserLocation(userIDs[u], pt, cityNames[city(u)]); err != nil {
					probeSink--
				}
			}
		})},
	}
}

// waitIdle blocks until the ingest queues are empty (or 5 s have passed,
// which a probe's numbers would show).
func (d *deployment) waitIdle() {
	_ = waitFor(5*time.Second, func() bool {
		c := d.Counters()
		return c["sensocial_ingest_backlog"] == 0 &&
			c["sensocial_ingest_processed_total"]+c["sensocial_ingest_dropped_total"] >= c["sensocial_ingest_enqueued_total"]
	})
}

// simProbes are the probes of the layers only the fleet simulator uses.
func simProbes() ([]probe, func() error, error) {
	ring, err := cluster.NewRing([]string{"shard0", "shard1", "shard2"}, 0)
	if err != nil {
		return nil, nil, err
	}
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = "u" + strconv.Itoa(i)
	}
	const peers, filtersPerPeer = 3, 64
	index := cluster.NewPeerIndex(peers)
	for p := 0; p < peers; p++ {
		for k := 0; k < filtersPerPeer; k++ {
			index.Add(p, fmt.Sprintf("sensocial/device/p%d-dev%d/trigger", p, k))
		}
	}
	scratch := &cluster.MatchScratch{}

	fabric := netsim.NewNetwork(wall, 1)
	ln, err := fabric.Listen("sink:1")
	if err != nil {
		return nil, nil, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 64<<10)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}()
	conn, err := fabric.Dial("src", "sink:1")
	if err != nil {
		return nil, nil, err
	}
	payload := make([]byte, 256)

	probes := []probe{
		{Name: "cluster.ring_owner_ns", Run: timed(func(n int) {
			for i := 0; i < n; i++ {
				probeSink += ring.OwnerIndex(keys[i%len(keys)])
			}
		})},
		{Name: "cluster.peerindex_match_ns", Run: timed(func(n int) {
			for i := 0; i < n; i++ {
				probeSink += len(index.Match("sensocial/device/p1-dev7/trigger", scratch))
			}
		})},
		{Name: "vclock.schedule_fire_ns", Run: func(n int) time.Duration {
			// Schedule + fire with 20 000 events pending, as one simulated
			// fleet's frames are; per event.
			const pending = 20000
			var total int64
			for done := 0; done < n; done += pending {
				clock := vclock.NewManual(time.Unix(0, 0))
				fired := 0
				start := nowNs()
				for i := 0; i < pending; i++ {
					clock.Schedule(time.Unix(0, int64(i%1000+1)*int64(time.Millisecond)), func(time.Time) { fired++ })
				}
				clock.Advance(time.Second)
				total += nowNs() - start
				probeSink += fired
			}
			rounds := (n + pending - 1) / pending
			return time.Duration(total * int64(n) / int64(rounds*pending))
		}},
		{Name: "netsim.write_ns", AllocName: "netsim.write_allocs", Run: timed(func(n int) {
			for i := 0; i < n; i++ {
				if _, err := conn.Write(payload); err != nil {
					probeSink--
				}
			}
		})},
	}
	cleanup := func() error {
		err := conn.Close()
		if e := fabric.Close(); err == nil {
			err = e
		}
		wg.Wait()
		return err
	}
	return probes, cleanup, nil
}
