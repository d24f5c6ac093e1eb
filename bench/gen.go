package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// The generator is pure: everything the program under test receives is a
// function of (seed, operation index). It knows nothing about the
// middleware's types; bench/sut.go turns an opSpec into a core.Item.

// itemClass is the shape of one uploaded item.
type itemClass uint8

const (
	classActivity itemClass = iota // classified activity label + 2-entry context, ~330 B
	classAccel                     // raw accelerometer window, ~1.1 KB
	classFix                       // raw location fix
	numClasses
)

var classNames = [numClasses]string{"activity", "accel", "fix"}

// itemMix is the per-mille share of each class; it must sum to 1000.
type itemMix [numClasses]int

var (
	mixClassified = itemMix{1000, 0, 0}
	mixCapacity   = itemMix{600, 300, 100}
)

var (
	activityLabels = []string{"walking", "still", "running", "cycling"}
	audioLabels    = []string{"silent", "noisy", "speech"}
	// cityNames are geo.EuropeanCities()' places, with their centres in
	// cityCentres, so a generated fix reverse-geocodes to the user's city.
	cityNames   = []string{"Paris", "Bordeaux", "Lyon", "Toulouse", "Birmingham", "London", "Ljubljana", "Barcelona"}
	cityCentres = [][2]float64{{48.8566, 2.3522}, {44.8378, -0.5792}, {45.7640, 4.8357}, {43.6047, 1.4442},
		{52.4862, -1.8904}, {51.5074, -0.1278}, {46.0569, 14.5058}, {41.3851, 2.1734}}
	actionTypes = []string{"post", "comment", "like"}
)

const (
	fixesPerCity = 8  // a user's fixes cycle through this many points
	accelPool    = 16 // distinct raw accelerometer payloads
	textPool     = 16 // distinct OSN action texts
	anchorEvery  = 8  // every 8th user is an anchor with a constant activity
)

// splitmix64 is the generator's only source of randomness.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// opSpec is one generated upload.
type opSpec struct {
	User  int
	Class itemClass
	Label string // classified label; empty for raw classes
	Place string // context entry
	Audio string // context entry
	Raw   []byte // raw payload; nil for classified items
}

// uplinkPlan is the input set of an uplink workload: a user population, the
// streams and cross-user conditions installed for it, and the item sequence.
// Operation i belongs to user i mod Users, so a user's k-th item is operation
// User + k·Users and each user's items are spread evenly over the run.
type uplinkPlan struct {
	Seed  uint64
	Users int
	Mix   itemMix

	UserIDs   []string
	DeviceIDs []string
	StreamIDs [numClasses][]string

	// AnchorLabel is the constant activity of an anchor user ("" for the
	// rest). Cross-user conditions only ever reference anchors, so every
	// filter outcome is fixed by the plan and not by arrival order.
	AnchorLabel []string
	// CondFriend is the anchor whose activity gates the user's activity
	// stream (condition "physical_activity equals walking"), −1 for none.
	CondFriend []int

	accel [][]byte
	fixes [][]byte // city-major: fixes[city*fixesPerCity+k]
}

// newUplinkPlan generates the population. conditionedShare is the per-mille
// share of (non-anchor) activity streams that carry a cross-user condition.
func newUplinkPlan(seed uint64, users int, mix itemMix, conditionedShare int) *uplinkPlan {
	p := &uplinkPlan{Seed: seed, Users: users, Mix: mix}
	p.UserIDs = make([]string, users)
	p.DeviceIDs = make([]string, users)
	p.AnchorLabel = make([]string, users)
	p.CondFriend = make([]int, users)
	for c := range p.StreamIDs {
		p.StreamIDs[c] = make([]string, users)
	}
	var anchors []int
	for u := 0; u < users; u++ {
		p.UserIDs[u] = fmt.Sprintf("u%05d", u)
		p.DeviceIDs[u] = fmt.Sprintf("d%05d", u)
		for c := range p.StreamIDs {
			p.StreamIDs[c][u] = fmt.Sprintf("%s-%05d", classNames[c], u)
		}
		p.CondFriend[u] = -1
		if u%anchorEvery == 0 {
			p.AnchorLabel[u] = activityLabels[splitmix64(seed^0xa11c0+uint64(u))%2] // walking or still
			anchors = append(anchors, u)
		}
	}
	for u := 0; u < users; u++ {
		if p.AnchorLabel[u] != "" || len(anchors) == 0 {
			continue
		}
		h := splitmix64(seed ^ 0xc04d ^ uint64(u)<<20)
		if int(h%1000) < conditionedShare {
			p.CondFriend[u] = anchors[(h>>32)%uint64(len(anchors))]
		}
	}
	p.accel = make([][]byte, accelPool)
	for j := range p.accel {
		p.accel[j] = genAccel(splitmix64(seed ^ 0xacce1 ^ uint64(j)<<8))
	}
	p.fixes = make([][]byte, len(cityNames)*fixesPerCity)
	for c, centre := range cityCentres {
		for k := 0; k < fixesPerCity; k++ {
			h := splitmix64(seed ^ 0xf1c5 ^ uint64(c)<<16 ^ uint64(k))
			// Within ±0.02° of the centre: inside every city's radius.
			lat := centre[0] + float64(int(h%4000)-2000)/100000
			lon := centre[1] + float64(int((h>>20)%4000)-2000)/100000
			p.fixes[c*fixesPerCity+k] = []byte(fmt.Sprintf(
				`{"lat":%.5f,"lon":%.5f,"accuracy_m":%d,"fix_seconds":%.1f}`,
				lat, lon, 5+(h>>40)%20, float64((h>>48)%50)/10))
		}
	}
	return p
}

// genAccel renders a 1 s accelerometer window in the transport form the
// device uploader uses (fixed-point integer arrays), about 1.1 KB.
func genAccel(h uint64) []byte {
	var b strings.Builder
	b.WriteString(`{"rate_hz":50`)
	for _, axis := range []string{"x", "y", "z"} {
		b.WriteString(`,"` + axis + `":[`)
		for i := 0; i < 50; i++ {
			h = splitmix64(h)
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(int(h%20000) - 10000))
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
	return []byte(b.String())
}

// City is the index into cityNames of the user's home city.
func (p *uplinkPlan) City(user int) int { return user % len(cityNames) }

// Rejected reports whether every item of the user's activity stream is
// dropped by its cross-user condition (the friend is an anchor that never
// walks).
func (p *uplinkPlan) Rejected(user int) bool {
	f := p.CondFriend[user]
	return f >= 0 && p.AnchorLabel[f] != "walking"
}

// Spec generates operation i.
func (p *uplinkPlan) Spec(i int) opSpec {
	u := i % p.Users
	k := i / p.Users
	h := splitmix64(p.Seed ^ uint64(i)*0x2545f4914f6cdd1d)
	s := opSpec{User: u}
	pick := int(h % 1000)
	switch {
	case pick < p.Mix[classActivity]:
		s.Class = classActivity
	case pick < p.Mix[classActivity]+p.Mix[classAccel]:
		s.Class = classAccel
	default:
		s.Class = classFix
	}
	switch s.Class {
	case classActivity:
		s.Label = p.AnchorLabel[u]
		if s.Label == "" {
			s.Label = activityLabels[(h>>16)%uint64(len(activityLabels))]
		}
		s.Place = cityNames[p.City(u)]
		s.Audio = audioLabels[(h>>24)%uint64(len(audioLabels))]
	case classAccel:
		s.Raw = p.accel[(h>>16)%accelPool]
	case classFix:
		s.Raw = p.fixes[p.City(u)*fixesPerCity+k%fixesPerCity]
	}
	return s
}

// uplinkExpect is what the program must do with a plan's operations.
type uplinkExpect struct {
	Delivered, Rejected, LocWrites, LocSkips int
}

// Expect walks the first n operations: how many reach the listener, how many
// the server filter drops, and how many location fixes move their user (a
// registry write) or repeat the previous fix (a skip). The registry has seen
// no fix before the run, so a user's first fix always writes.
func (p *uplinkPlan) Expect(n int) uplinkExpect {
	var e uplinkExpect
	lastFix := make([]int, p.Users)
	for u := range lastFix {
		lastFix[u] = -1
	}
	for i := 0; i < n; i++ {
		s := p.Spec(i)
		if s.Class == classActivity && p.Rejected(s.User) {
			e.Rejected++
			continue
		}
		// Location bookkeeping happens before the filter in the server, but
		// fixes travel on their own unconditioned stream.
		if s.Class == classFix {
			k := (i / p.Users) % fixesPerCity
			if lastFix[s.User] == k {
				e.LocSkips++
			} else {
				e.LocWrites++
				lastFix[s.User] = k
			}
		}
		e.Delivered++
	}
	return e
}

// Digest hashes the first n operations, for the determinism test and the
// result file: equal seeds give equal digests, different seeds differ.
func (p *uplinkPlan) Digest(n int) string {
	var b bytes.Buffer
	for u := 0; u < p.Users; u++ {
		fmt.Fprintf(&b, "%d|%s\n", p.CondFriend[u], p.AnchorLabel[u])
	}
	for i := 0; i < n; i++ {
		s := p.Spec(i)
		fmt.Fprintf(&b, "%d|%d|%s|%s|%s|%s\n", s.User, s.Class, s.Label, s.Place, s.Audio, s.Raw)
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// actionSpec is one generated OSN action.
type actionSpec struct {
	User int
	ID   string
	Type string
	Text string
}

// triggerPlan is the input set of the OSN trigger workload: Users users with
// one device each; action i is performed by user i mod Users.
type triggerPlan struct {
	Seed      uint64
	Users     int
	UserIDs   []string
	DeviceIDs []string
	StreamIDs []string
	texts     []string
}

func newTriggerPlan(seed uint64, users int) *triggerPlan {
	p := &triggerPlan{Seed: seed, Users: users}
	for u := 0; u < users; u++ {
		p.UserIDs = append(p.UserIDs, fmt.Sprintf("u%05d", u))
		p.DeviceIDs = append(p.DeviceIDs, fmt.Sprintf("d%05d", u))
		p.StreamIDs = append(p.StreamIDs, fmt.Sprintf("osn-%05d", u))
	}
	words := []string{"coffee", "train", "rain", "match", "lunch", "office", "park", "music", "late", "home"}
	for j := 0; j < textPool; j++ {
		h := splitmix64(seed ^ 0x7e87 ^ uint64(j)<<12)
		var parts []string
		for w := 0; w < 6; w++ {
			parts = append(parts, words[h%uint64(len(words))])
			h = splitmix64(h)
		}
		p.texts = append(p.texts, strings.Join(parts, " "))
	}
	return p
}

// City is the index into cityNames of the user's home city.
func (p *triggerPlan) City(user int) int { return user % len(cityNames) }

// Spec generates action i.
func (p *triggerPlan) Spec(i int) actionSpec {
	h := splitmix64(p.Seed ^ uint64(i)*0x2545f4914f6cdd1d)
	return actionSpec{
		User: i % p.Users,
		ID:   actionID(i),
		Type: actionTypes[h%uint64(len(actionTypes))],
		Text: p.texts[(h>>16)%textPool],
	}
}

// actionID names action i; parseActionID is its inverse (−1 if malformed).
func actionID(i int) string { return "a" + strconv.Itoa(i) }

func parseActionID(id string) int {
	if len(id) < 2 || id[0] != 'a' {
		return -1
	}
	return parseDigits(id[1:])
}

// parseDigits reads a non-negative decimal without allocating; −1 if s is
// empty or holds anything but digits.
func parseDigits(s string) int {
	if s == "" {
		return -1
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// indexOfID recovers the user index from a generated id such as "u00042" or
// "sensocial/stream/d00042": the trailing five digits.
func indexOfID(id string) int {
	if len(id) < 5 {
		return -1
	}
	return parseDigits(id[len(id)-5:])
}

// Digest hashes the first n actions.
func (p *triggerPlan) Digest(n int) string {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		s := p.Spec(i)
		fmt.Fprintf(&b, "%d|%s|%s|%s\n", s.User, s.ID, s.Type, s.Text)
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}
