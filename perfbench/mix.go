package main

// The seeded job mix of the serve workloads. The program under test
// receives only the generated request bodies.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/fuzzgen"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// Job classes of the mix and their shares of the list. The shares are
// assumptions: no recorded lbp-serve traffic exists to take them from.
// With the result cache on, every hot and image job after the warm-up
// is a cache hit, and only the fuzz jobs reach the fleet, so the timed
// simulations are fuzzgen programs only. Hits answer about three times
// faster than misses, so the split between them is kept well away from
// one half: 30% hits put p50 and p99 among the simulated jobs, not in
// the gap between the two groups. The run prints both groups'
// latencies apart, so a claim need not rest on the assumed hit share.
const (
	classFuzz  = "fuzz"  // a distinct fuzzgen MiniC+OpenMP program: compile-bound
	classHot   = "hot"   // MiniC source from the hot set: repeats
	classImage = "image" // pre-assembled image of a hot-set program: skips cc

	shareFuzz    = 0.70
	shareHot     = 0.20
	shareProfile = 0.15 // any class may ask for the perf snapshot

	mixCores   = 4
	hotFuzzgen = 5 // fuzzgen programs in the hot set beside the five matmuls
)

// hashJobs is how many jobs from the head of the list the printed
// list hash covers.
const hashJobs = 2000

// mixJob is one entry of the list. Equal requests share a key; every
// fuzz job has a key of its own.
type mixJob struct {
	class    string
	key      int
	profile  bool
	fuzzSeed int64
}

// mix is the job list of one seed. It is unbounded: job i is a pure
// function of the seed and i, generated when a client needs it, so a
// faster program never runs out of distinct jobs.
type mix struct {
	seed int64
	hot  []hotReq // by key: (hot program, source|image, profile)
	hash string
}

// hotReq is one request of the hot set, marshaled once.
type hotReq struct {
	req  serve.JobRequest
	body []byte
}

// hotSource is one program of the hot set.
type hotSource struct {
	name string
	src  string
}

// newMix builds the hot set of seed and hashes the head of its list.
func newMix(seed int64) (*mix, error) {
	rng := rand.New(rand.NewSource(seed))
	var hot []hotSource
	for _, v := range workloads.Variants {
		src, err := workloads.MatmulSource(v, 16)
		if err != nil {
			return nil, err
		}
		hot = append(hot, hotSource{"matmul-" + string(v), src})
	}
	for i := 0; i < hotFuzzgen; i++ {
		p := fuzzgen.Generate(rng.Int63(), fuzzgen.GenConfig{})
		hot = append(hot, hotSource{fmt.Sprintf("fuzz-hot-%d", i), p.Render()})
	}
	m := &mix{seed: seed}
	for _, h := range hot {
		// The image is assembled as the server would assemble the same
		// source, so an image job and its source twin share a cache key.
		prog, err := buildProgram(&serve.JobRequest{Source: h.src, Cores: mixCores})
		if err != nil {
			return nil, fmt.Errorf("mix: %s: %w", h.name, err)
		}
		var img bytes.Buffer
		if err := prog.WriteImage(&img); err != nil {
			return nil, err
		}
		for _, image := range []bool{false, true} {
			for _, profile := range []bool{false, true} {
				req := serve.JobRequest{Cores: mixCores, Digest: true, Profile: profile}
				if image {
					req.Image = img.Bytes()
				} else {
					req.Source = h.src
				}
				b, err := json.Marshal(&req)
				if err != nil {
					return nil, err
				}
				m.hot = append(m.hot, hotReq{req, b})
			}
		}
	}
	h := sha256.New()
	for i := 0; i < hashJobs; i++ {
		_, b := m.request(i)
		binary.Write(h, binary.LittleEndian, uint64(len(b)))
		h.Write(b)
	}
	m.hash = hex.EncodeToString(h.Sum(nil))[:16]
	return m, nil
}

// job draws the class of job i without rendering it.
func (m *mix) job(i int) mixJob {
	rng := rand.New(rand.NewSource(m.seed*0x9E3779B1 + int64(i)*0x632BE5AB + 1))
	j := mixJob{profile: rng.Float64() < shareProfile}
	x := rng.Float64()
	k := rng.Intn(len(m.hot) / 4)
	switch {
	case x < shareFuzz:
		j.class = classFuzz
		j.fuzzSeed = rng.Int63()
		j.key = len(m.hot) + i
		return j
	case x < shareFuzz+shareHot:
		j.class = classHot
		j.key = 4 * k
	default:
		j.class = classImage
		j.key = 4*k + 2
	}
	if j.profile {
		j.key++
	}
	return j
}

// request returns job i's request and its JSON body.
func (m *mix) request(i int) (serve.JobRequest, []byte) {
	j := m.job(i)
	if j.class != classFuzz {
		return m.hot[j.key].req, m.hot[j.key].body
	}
	req := serve.JobRequest{Cores: mixCores, Digest: true, Profile: j.profile,
		Source: fuzzgen.Generate(j.fuzzSeed, fuzzgen.GenConfig{}).Render()}
	b, err := json.Marshal(&req)
	if err != nil {
		panic(err) // a JobRequest of strings and numbers always marshals
	}
	return req, b
}

// describe prints the shares of the first issued jobs: each class, the
// profile flag, repeats (a request already sent earlier in the list)
// and cc-bypassing image jobs.
func (m *mix) describe(log io.Writer, issued int) {
	if issued == 0 {
		return
	}
	seen := map[int]bool{}
	count := map[string]int{}
	var repeats, profile int
	for i := 0; i < issued; i++ {
		j := m.job(i)
		count[j.class]++
		if seen[j.key] {
			repeats++
		}
		seen[j.key] = true
		if j.profile {
			profile++
		}
	}
	f := func(k int) float64 { return float64(k) / float64(issued) }
	fmt.Fprintf(log, "mix: %d issued: fuzz %.3f hot %.3f image(cc-bypass) %.3f profile %.3f repeats %.3f\n",
		issued, f(count[classFuzz]), f(count[classHot]), f(count[classImage]), f(profile), f(repeats))
}
