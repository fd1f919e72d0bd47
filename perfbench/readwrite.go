package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"silkmoth"
	"silkmoth/internal/dataset"
	"silkmoth/internal/server"
	"silkmoth/internal/wal"
)

// writeBody is one set a write adds or updates to, and its encoded
// requests.
type writeBody struct {
	raw         dataset.RawSet
	add, update []byte
}

// writePoolSize sets are drawn; a run that writes more sends them again
// from the start.
const writePoolSize = 8192

// newWritePool draws the sets writes send, each a drifted copy of a corpus
// set under a name of its own, and encodes them outside the timed region.
func newWritePool(rng *rand.Rand, raws []dataset.RawSet) []writeBody {
	out := make([]writeBody, writePoolSize)
	for i := range out {
		base := raws[rng.Intn(len(raws))]
		raw := dataset.RawSet{Name: fmt.Sprintf("w%d", i), Elements: driftWords(rng, base.Elements, 0.1)}
		set := server.SetJSON{Name: raw.Name, Elements: raw.Elements}
		out[i] = writeBody{
			raw:    raw,
			add:    mustJSON(map[string]any{"sets": []server.SetJSON{set}}),
			update: mustJSON(map[string]any{"set": set}),
		}
	}
	return out
}

// write sends one mutation: 30% adds, 40% updates, 30% deletes, each of
// the next set of the write pool. Every snapEvery writes it also requests
// a snapshot.
func (c *client) write() {
	b := c.b
	b.writeMu.Lock()
	defer b.writeMu.Unlock()
	compactions := b.eng.Stats().Compactions

	tb := time.Now()
	rec := writeRec{op: "add"}
	switch x := c.rng.Float64(); {
	case x < 0.3 || len(b.liveIDs) == 0:
	case x < 0.7:
		rec.op = "update"
	default:
		rec.op = "delete"
	}
	wb := &b.writePool[b.writeN%len(b.writePool)]
	if rec.op != "delete" {
		rec.raw = wb.raw
	}
	var req *http.Request
	switch rec.op {
	case "add":
		req = c.rq.aim(http.MethodPost, "/v1/sets", wb.add)
	case "update":
		rec.id = b.liveIDs[c.rng.Intn(len(b.liveIDs))]
		req = c.rq.aim(http.MethodPut, "/v1/sets/"+strconv.Itoa(rec.id), wb.update)
	case "delete":
		rec.id = b.liveIDs[c.rng.Intn(len(b.liveIDs))]
		req = c.rq.aim(http.MethodDelete, "/v1/sets/"+strconv.Itoa(rec.id), nil)
	}
	c.w.reset()
	lat, _, ok := c.serve(req, time.Since(tb), rec.op)
	c.st.writeLat = append(c.st.writeLat, ms(lat))
	if !ok {
		return
	}
	if b.eng.Stats().Compactions != compactions {
		b.stalls = append(b.stalls, lat)
	}
	switch rec.op {
	case "add":
		rec.id = b.nextID
		b.nextID++
		b.addLive(rec.id, rec.raw)
	case "update":
		var resp struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(c.w.buf, &resp); err != nil || resp.ID != b.nextID {
			b.r.fail("update of %d returned id %d (err %v), want %d", rec.id, resp.ID, err, b.nextID)
			return
		}
		rec.newID = resp.ID
		b.nextID++
		b.removeLive(rec.id)
		b.addLive(rec.newID, rec.raw)
	case "delete":
		b.removeLive(rec.id)
	}
	b.writes = append(b.writes, rec)
	b.writeN++
	if b.writeN%b.sp.snapEvery == 0 {
		tb := time.Now()
		req := c.rq.aim(http.MethodPost, "/v1/snapshot", nil)
		c.w.reset()
		lat, _, ok := c.serve(req, time.Since(tb), "snapshot")
		if ok {
			b.snaps = append(b.snaps, lat)
		}
	}
}

func (b *httpBench) addLive(id int, raw dataset.RawSet) {
	b.live[id] = raw
	b.liveIDs = append(b.liveIDs, id)
}

func (b *httpBench) removeLive(id int) {
	delete(b.live, id)
	i := slices.Index(b.liveIDs, id)
	b.liveIDs[i] = b.liveIDs[len(b.liveIDs)-1]
	b.liveIDs = b.liveIDs[:len(b.liveIDs)-1]
}

// finishReadWrite checks the durable engine after the run. Sampled answers
// must equal a brute-force oracle built fresh over the surviving sets;
// then the engine is closed and reopened from its data directory, and
// every acknowledged write must be readable and every sampled answer
// identical.
func (b *httpBench) finishReadWrite(samples []readSample) error {
	r := b.r
	ids := make([]int, 0, len(b.live))
	userBytes := 0
	for id, raw := range b.live {
		ids = append(ids, id)
		for _, e := range raw.Elements {
			userBytes += len(e)
		}
	}
	slices.Sort(ids)
	diskBytes, err := dirBytes(b.cfg.DataDir)
	if err != nil {
		return err
	}
	r.rep.set("disk_bytes_per_user_byte", float64(diskBytes)/float64(userBytes), 1)

	survivors := make([]dataset.RawSet, len(ids))
	for i, id := range ids {
		survivors[i] = b.live[id]
	}
	orc, err := newOracle(survivors, b.cfg)
	if err != nil {
		return err
	}
	// Answers read now, through the handler, from the items the run sampled.
	items := map[int]bool{}
	for _, s := range samples {
		if len(items) < 60 {
			items[s.item] = true
		}
	}
	before := map[int][]answer{}
	w := &respWriter{h: http.Header{}}
	for item := range items {
		got, err := b.ask(b.srv, w, item)
		r.attempted++
		if err != nil {
			r.fail("search %d after the run: %v", item, err)
			continue
		}
		before[item] = got
		if err := sameAnswer(got, orc.search(b.sp.pool[item], 0), func(i int) int { return ids[i] }); err != nil {
			r.fail("query %d against the surviving sets: %v", item, err)
		}
	}

	if err := b.eng.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	eng, err := silkmoth.NewEngine(nil, b.cfg)
	if err != nil {
		return fmt.Errorf("reopening %s: %w", b.cfg.DataDir, err)
	}
	recoverDur := time.Since(t0)
	b.eng = eng // closed by runHTTP
	r.rep.set("wal.recover_ms", ms(recoverDur), 1)
	r.attempted++
	if eng.Len() != len(ids) {
		r.fail("reopened engine holds %d sets, %d were acknowledged", eng.Len(), len(ids))
	}
	for _, id := range ids {
		if !eng.Live(id) || eng.SetName(id) != b.live[id].Name {
			r.fail("acknowledged set %d (%s) is not readable after reopening", id, b.live[id].Name)
			break
		}
	}
	srv := server.New(eng, b.cfg, server.Options{})
	for item, want := range before {
		got, err := b.ask(srv, w, item)
		r.attempted++
		if err == nil && !slices.Equal(got, want) {
			err = fmt.Errorf("answer changed across the restart")
		}
		if err != nil {
			r.fail("query %d after reopening: %v", item, err)
		}
	}
	return nil
}

// ask sends the search for pool item through srv and decodes the answer.
func (b *httpBench) ask(srv *server.Server, w *respWriter, item int) ([]answer, error) {
	w.reset()
	srv.ServeHTTP(w, newRequest(http.MethodPost, "/v1/search", b.search[item]))
	if w.code != 0 && w.code/100 != 2 {
		return nil, fmt.Errorf("HTTP %d", w.code)
	}
	return decodeAnswer(w.buf)
}

func decodeAnswer(body []byte) ([]answer, error) {
	var resp struct {
		Matches []answer `json:"matches"`
	}
	err := json.Unmarshal(body, &resp)
	return resp.Matches, err
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// replayWrites times the run's acknowledged mutations in isolation: once
// through the public API on a durable engine built from the same corpus
// (where the same sequence reproduces the same ids), and once as records
// appended to a scratch write-ahead log on the same filesystem.
func (b *httpBench) replayWrites() error {
	r := b.r
	cfg := b.cfg
	cfg.DataDir = filepath.Join(r.work, "replay-api")
	eng, err := silkmoth.NewEngine(toSets(b.sp.raws), cfg)
	if err != nil {
		return err
	}
	defer eng.Close()
	lat := map[string][]float64{}
	for _, w := range b.writes {
		set := silkmoth.Set{Name: w.raw.Name, Elements: w.raw.Elements}
		t0 := time.Now()
		switch w.op {
		case "add":
			err = eng.Add([]silkmoth.Set{set})
		case "update":
			var id int
			if id, err = eng.Update(w.id, set); err == nil && id != w.newID {
				err = fmt.Errorf("update of %d gave id %d, the run got %d", w.id, id, w.newID)
			}
		case "delete":
			err = eng.Delete(w.id)
		}
		lat[w.op] = append(lat[w.op], us(time.Since(t0)))
		if err != nil {
			r.fail("replaying %s: %v", w.op, err)
			break
		}
	}
	for _, op := range []string{"add", "update", "delete"} {
		r.rep.set("api."+op+"_us_p50", median(lat[op]), len(lat[op]))
	}

	fsys, err := wal.DirFS(filepath.Join(r.work, "replay-wal"))
	if err != nil {
		return err
	}
	st, err := wal.Open(fsys)
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.WriteSnapshot(func(io.Writer) error { return nil }); err != nil {
		return err
	}
	var appendLat []float64
	var frameBytes int
	for _, w := range b.writes {
		rec := &wal.Record{ID: w.id, Sets: []dataset.RawSet{w.raw}}
		switch w.op {
		case "add":
			rec.Op, rec.ID = wal.OpAdd, 0
		case "update":
			rec.Op = wal.OpUpdate
		case "delete":
			rec.Op, rec.Sets = wal.OpDelete, nil
		}
		frameBytes += len(wal.AppendRecord(nil, rec))
		t0 := time.Now()
		if err := st.Append(rec); err != nil {
			return err
		}
		appendLat = append(appendLat, us(time.Since(t0)))
	}
	n := len(appendLat)
	r.rep.set("wal.bytes_per_write", ratio(float64(frameBytes), float64(n)), n)
	r.rep.set("wal.append_us_p50", quantile(appendLat, 0.5), n)
	r.rep.set("wal.append_us_p99", quantile(appendLat, 0.99), n)
	return nil
}
