package wire

// Client edge cases: batch chunking at the frame-size boundaries and
// the timeout/retry policy added for flaky networks.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countingIngest records how many frames and records arrive on
// /updates.
type countingIngest struct {
	frames  atomic.Int64
	records atomic.Int64
	maxRecs atomic.Int64
}

func (c *countingIngest) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for {
			recs, err := ReadFrame(r.Body)
			if err != nil {
				break
			}
			c.frames.Add(1)
			c.records.Add(int64(len(recs)))
			for {
				cur := c.maxRecs.Load()
				if int64(len(recs)) <= cur || c.maxRecs.CompareAndSwap(cur, int64(len(recs))) {
					break
				}
			}
		}
		fmt.Fprint(w, `{"records":0,"applied":0}`)
	})
}

func batchOf(n int) []Record {
	batch := make([]Record, n)
	for i := range batch {
		batch[i] = rec(fmt.Sprintf("veh-%05d", i), 1, float64(i))
	}
	return batch
}

// TestClientChunkingEdgeCases sends batches of 0, 1, 4096 and 4097
// records: the chunker must emit exactly ceil(n/4096) frames, no frame
// over maxRecordsPerFrame, and every record exactly once.
func TestClientChunkingEdgeCases(t *testing.T) {
	cases := []struct {
		records    int
		wantFrames int64
	}{
		{0, 0},
		{1, 1},
		{maxRecordsPerFrame, 1},
		{maxRecordsPerFrame + 1, 2},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%d-records", tc.records), func(t *testing.T) {
			ingest := &countingIngest{}
			ts := httptest.NewServer(ingest.handler())
			defer ts.Close()
			cl := NewClient(ts.URL, ts.Client())

			if err := cl.Send(0, batchOf(tc.records)); err != nil {
				t.Fatal(err)
			}
			if got := ingest.frames.Load(); got != tc.wantFrames {
				t.Errorf("server saw %d frames, want %d", got, tc.wantFrames)
			}
			if got := ingest.records.Load(); got != int64(tc.records) {
				t.Errorf("server saw %d records, want %d", got, tc.records)
			}
			if max := ingest.maxRecs.Load(); max > maxRecordsPerFrame {
				t.Errorf("a frame carried %d records, cap is %d", max, maxRecordsPerFrame)
			}
			st := cl.Stats()
			if st.Sent != int64(tc.records) || st.Delivered != int64(tc.records) {
				t.Errorf("client stats %+v", st)
			}
			if st.Frames != tc.wantFrames {
				t.Errorf("client counted %d frames, want %d", st.Frames, tc.wantFrames)
			}
			if st.Errors != 0 || st.Retries != 0 {
				t.Errorf("spurious errors/retries: %+v", st)
			}
		})
	}
}

// TestClientRetriesTransientFailures: the first two attempts fail with
// a 503, the third succeeds — Send must succeed with Retries == 2 and
// no Errors.
func TestClientRetriesTransientFailures(t *testing.T) {
	var attempts atomic.Int64
	ingest := &countingIngest{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= 2 {
			http.Error(w, "briefly overloaded", http.StatusServiceUnavailable)
			return
		}
		ingest.handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	cl := NewClient(ts.URL, ts.Client())
	cl.SetRetry(time.Second, 2, time.Millisecond)

	if err := cl.Send(0, batchOf(3)); err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("%d attempts, want 3", got)
	}
	st := cl.Stats()
	if st.Retries != 2 || st.Errors != 0 || st.Delivered != 3 {
		t.Errorf("stats %+v", st)
	}
	if ingest.records.Load() != 3 {
		t.Errorf("server applied %d records", ingest.records.Load())
	}
}

// TestClientGivesUpAfterRetries: a persistently failing server
// exhausts the budget; the error and every retry are counted.
func TestClientGivesUpAfterRetries(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		attempts.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()
	cl := NewClient(ts.URL, ts.Client())
	cl.SetRetry(time.Second, 2, time.Millisecond)

	err := cl.Send(0, batchOf(1))
	if err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("err %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("%d attempts, want 3 (1 + 2 retries)", got)
	}
	st := cl.Stats()
	if st.Errors != 1 || st.Retries != 2 || st.Delivered != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestClientDoesNotRetryPermanentFailures: a 4xx is the server telling
// us the request is wrong; re-sending it would be noise.
func TestClientDoesNotRetryPermanentFailures(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		attempts.Add(1)
		http.Error(w, "bad frame", http.StatusBadRequest)
	}))
	defer ts.Close()
	cl := NewClient(ts.URL, ts.Client())
	cl.SetRetry(time.Second, 5, time.Millisecond)

	if err := cl.Send(0, batchOf(1)); err == nil {
		t.Fatal("400 did not surface")
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("%d attempts, want 1 (no retry on 4xx)", got)
	}
	if st := cl.Stats(); st.Errors != 1 || st.Retries != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestClientTimeoutBoundsAttempt: a hanging server must not hang Send —
// the per-attempt context cancels it and the retry budget applies.
func TestClientTimeoutBoundsAttempt(t *testing.T) {
	release := make(chan struct{})
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		attempts.Add(1)
		<-release
	}))
	defer ts.Close()
	defer close(release)
	cl := NewClient(ts.URL, ts.Client())
	cl.SetRetry(50*time.Millisecond, 1, time.Millisecond)

	start := time.Now()
	err := cl.Send(0, batchOf(1))
	if err == nil {
		t.Fatal("hanging server did not error")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("Send blocked %v despite the timeout", took)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("%d attempts, want 2 (timeout is transient)", got)
	}
	if st := cl.Stats(); st.Errors != 1 || st.Retries != 1 {
		t.Errorf("stats %+v", st)
	}
}
