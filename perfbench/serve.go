package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"bfvlsi/internal/routing"
	"bfvlsi/internal/serve"
)

type serveConfig struct {
	// Round is the length of the seeded request sequence.
	Round int
	// Healthz is the number of /healthz probes in the layer suite.
	Healthz int
}

type reqClass int

const (
	classHit reqClass = iota
	classWhatifHit
	classRouteMiss
	classWhatifMiss
	classSweepMiss
	numClasses
)

// classNames name the classes in metrics and spans.
var classNames = [numClasses]string{"hit", "whatif.hit", "route.miss", "whatif.miss", "faultsweep.miss"}

// classPercent is the request mix of the round. It is an assumption,
// not a measurement: see serveHarness.
var classPercent = [numClasses]int{70, 10, 10, 5, 5}

func (c reqClass) wantCache() string {
	if c == classHit || c == classWhatifHit {
		return "hit"
	}
	return "miss"
}

type request struct {
	class reqClass
	path  string
	body  []byte
}

// serveHarness runs bfserve's handler behind a loopback httptest
// server in this process and drives it with closed-loop clients, each
// of which waits for its reply before it sends again. Only the layer
// suite uses it: as a timed workload, its speed followed the host's
// load too closely to be gated (see README.md). The request mix
// is synthetic. The only caller in the repository, the dispatch
// coordinator, sends what-if requests alone (and it too waits for each
// reply). No recorded traffic fixes the shares of the layout, packaging,
// checkpoint, route and fault-sweep classes, or the hit ratio.
type serveHarness struct {
	cfg     serveConfig
	seed    int64
	ts      *httptest.Server
	client  *http.Client
	working []request // layout, packaging and checkpoint queries
	whatifs []request // what-if queries repeated by every round
	ckpt    string    // base64 checkpoint the what-if queries fork
}

func (w *serveHarness) close() {
	if w.ts != nil {
		w.client.CloseIdleConnections()
		w.ts.Close()
		w.ts = nil
	}
}

// checkpointBody asks for the reliable+adaptive n=5 checkpoint every
// what-if query forks.
func (w *serveHarness) checkpointBody() []byte {
	return []byte(fmt.Sprintf(`{"n":5,"lambda":0.1,"warmup":100,"cycles":300,"seed":%d,"bufferLimit":4,`+
		`"reliable":{"timeout":20,"maxRetries":5,"jitter":3,"seed":%d,"measureFrom":100},"adaptive":{"seed":%d},"cycle":100}`,
		derive(w.seed, streamServeSeed, 0), derive(w.seed, streamServeSeed, 1), derive(w.seed, streamServeSeed, 2)))
}

func (w *serveHarness) whatifBody(seed int64) []byte {
	return []byte(fmt.Sprintf(`{"checkpoint":%q,"fault":{"linkRate":0.02,"seed":%d}}`, w.ckpt, seed))
}

// setup starts a fresh server and fills its cache with the working set.
func (w *serveHarness) setup() error {
	w.close()
	w.ts = httptest.NewServer(serve.New(serve.Config{}).Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: parallelism, DisableCompression: true}}

	ckReq := request{class: classHit, path: "/v1/checkpoint", body: w.checkpointBody()}
	_, body, err := w.do(ckReq)
	if err != nil {
		return err
	}
	var ck struct{ Checkpoint []byte }
	if err := json.Unmarshal(body, &ck); err != nil {
		return fmt.Errorf("decoding the checkpoint: %w", err)
	}
	w.ckpt = base64.StdEncoding.EncodeToString(ck.Checkpoint)

	w.working = []request{ckReq}
	add := func(path, body string) { w.working = append(w.working, request{classHit, path, []byte(body)}) }
	for n := 6; n <= 9; n++ {
		add("/v1/packaging", fmt.Sprintf(`{"variant":"nucleus","n":%d}`, n))
		add("/v1/packaging", fmt.Sprintf(`{"variant":"row","n":%d}`, n))
	}
	for _, widths := range []string{"[2,2]", "[2,2,2]", "[3,3]", "[3,3,3]"} {
		add("/v1/layout", `{"family":"thompson","widths":`+widths+`}`)
	}
	for n := 8; n <= 64; n *= 2 {
		add("/v1/layout", fmt.Sprintf(`{"family":"collinear","n":%d}`, n))
	}
	add("/v1/layout", `{"family":"hierarchy","n":9,"maxPins":64,"chipSide":20}`)
	w.whatifs = nil
	for k := uint64(0); k < 3; k++ {
		w.whatifs = append(w.whatifs, request{classWhatifHit, "/v1/whatif", w.whatifBody(derive(w.seed, streamServeSeed, 3+k))})
	}
	for _, r := range append(append([]request(nil), w.working[1:]...), w.whatifs...) {
		if _, _, err := w.do(r); err != nil {
			return err
		}
	}
	return nil
}

// do sends one request and returns its cache header and body; any
// status but 200 is an error.
func (w *serveHarness) do(r request) (cache string, body []byte, err error) {
	resp, err := w.client.Post(w.ts.URL+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return "", nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("%s: status %d: %s", r.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return resp.Header.Get("X-Bfserve-Cache"), body, nil
}

// round builds the seeded request sequence of one round: the mix
// above exactly, shuffled, with fresh seeds for the misses.
func (w *serveHarness) round() []request {
	size := w.cfg.Round
	rng := rand.New(rand.NewSource(derive(w.seed, streamServeMix, 0)))
	var classes []reqClass
	for c := reqClass(1); c < numClasses; c++ {
		for k := 0; k < size*classPercent[c]/100; k++ {
			classes = append(classes, c)
		}
	}
	for len(classes) < size {
		classes = append(classes, classHit)
	}
	rng.Shuffle(len(classes), func(a, b int) { classes[a], classes[b] = classes[b], classes[a] })
	reqs := make([]request, size)
	for i, c := range classes {
		fresh := derive(w.seed, streamServeSeed, uint64(1000+i))
		switch c {
		case classHit:
			reqs[i] = w.working[rng.Intn(len(w.working))]
		case classWhatifHit:
			reqs[i] = w.whatifs[rng.Intn(len(w.whatifs))]
		case classRouteMiss:
			reqs[i] = request{c, "/v1/route", []byte(fmt.Sprintf(`{"n":5,"lambda":0.1,"warmup":50,"cycles":200,"seed":%d}`, fresh))}
		case classWhatifMiss:
			reqs[i] = request{c, "/v1/whatif", w.whatifBody(fresh)}
		default:
			reqs[i] = request{c, "/v1/faultsweep", []byte(fmt.Sprintf(`{"n":4,"lambda":0.1,"warmup":50,"cycles":200,"seed":%d,"rates":[0.01,0.02,0.05]}`, fresh))}
		}
	}
	return reqs
}

// drive sends the requests from the closed-loop clients, each request
// traced as a span named serve.<class>, and checks every response. It
// returns the checks' outcome and the number of cache hits.
func (w *serveHarness) drive(reqs []request, tr *tracer, parent int) (*sample, int) {
	s := &sample{}
	hits, next := 0, 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < parallelism; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				id := tr.begin("serve."+classNames[r.class], parent, i)
				cache, body, err := w.do(r)
				tr.end(id)
				if err == nil {
					err = checkResponse(r, cache, body)
				}
				mu.Lock()
				s.attempted++
				if err != nil {
					s.fail(1, fmt.Sprintf("serve: request %d (%s): %v", i, classNames[r.class], err))
				}
				if cache == "hit" {
					hits++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return s, hits
}

// checkResponse verifies the cache header against the request's class
// and that simulation results conserve packets.
func checkResponse(r request, cache string, body []byte) error {
	if want := r.class.wantCache(); cache != want {
		return fmt.Errorf("X-Bfserve-Cache %q, want %q", cache, want)
	}
	var res *routing.Result
	switch r.class {
	case classRouteMiss:
		res = new(routing.Result)
		if err := json.Unmarshal(body, res); err != nil {
			return err
		}
	case classWhatifHit, classWhatifMiss:
		var wr struct{ Result *routing.Result }
		if err := json.Unmarshal(body, &wr); err != nil {
			return err
		}
		if wr.Result == nil {
			return fmt.Errorf("what-if response without a result")
		}
		res = wr.Result
	default:
		return nil
	}
	return res.CheckConservation()
}

// evictions reads the server's cache eviction count from /statsz.
func (w *serveHarness) evictions() (int64, error) {
	resp, err := w.client.Get(w.ts.URL + "/statsz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct{ CacheEvictions int64 }
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	return st.CacheEvictions, nil
}

// healthz times one /healthz round trip.
func (w *serveHarness) healthz() (time.Duration, error) {
	t0 := time.Now()
	resp, err := w.client.Get(w.ts.URL + "/healthz")
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("/healthz: status %d", resp.StatusCode)
	}
	return time.Since(t0), err
}
