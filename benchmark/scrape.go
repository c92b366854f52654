package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// scrape is one parsed Prometheus text exposition: series id (the name with
// its label set, as exported) → value. The per-layer counters are read from
// the same /metrics text an operator's scraper would read, as deltas between
// a scrape before the traced window and one after it.
type scrape map[string]float64

func parseProm(text string) scrape {
	s := scrape{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s[line[:sp]] += v
	}
	return s
}

// sum adds up every series of one metric family, whatever its labels.
func (s scrape) sum(family string) float64 {
	total := 0.0
	for id, v := range s {
		if id == family || strings.HasPrefix(id, family+"{") {
			total += v
		}
	}
	return total
}

// merge adds other's series into s (summing the replicas' registries).
func (s scrape) merge(other scrape) {
	for id, v := range other {
		s[id] += v
	}
}

// fleetScrape is the front's registry and the replicas' registries summed.
type fleetScrape struct {
	front    scrape
	replicas scrape
	took     time.Duration // the front's GET /metrics round trip
	series   int           // sample lines across the fleet
}

// scrapeFleet reads the front over HTTP, as a scraper would, and the
// replicas' registries directly (they expose no HTTP listener here).
func scrapeFleet(f *fleet) (fleetScrape, error) {
	var fs fleetScrape
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	start := time.Now()
	resp, err := hc.Get(f.httpURL + "/metrics")
	if err != nil {
		return fs, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fs, err
	}
	if resp.StatusCode != http.StatusOK {
		return fs, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	fs.took = time.Since(start)
	fs.front = parseProm(string(body))
	fs.replicas = scrape{}
	fs.series = len(fs.front)
	for _, r := range f.replicas {
		var sb strings.Builder
		if err := r.reg.WritePrometheus(&sb); err != nil {
			return fs, err
		}
		one := parseProm(sb.String())
		fs.series += len(one)
		fs.replicas.merge(one)
	}
	return fs, nil
}

// delta is after minus before for one metric family.
func delta(after, before scrape, family string) float64 {
	return after.sum(family) - before.sum(family)
}
