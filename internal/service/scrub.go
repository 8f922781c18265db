package service

import (
	"net/http"
	"time"

	"rqm/internal/store"
)

// Scrub job plumbing: POST /v1/scrub kicks off one background integrity
// pass over the shard's archive (store.Scrub) and returns 202 immediately;
// GET /v1/scrub/status reports live progress and, once finished, the full
// report. One pass at a time — a second POST while one runs answers 409
// scrub_running, so an operator (or the chaos suite) can poll status
// without racing overlapping walks.
//
// The job deliberately runs OUTSIDE the admission semaphore: a scrub is
// maintenance, and it must neither starve the serving path of permits nor
// be starved by it. The store's own publish lock already serializes the
// only contended step (quarantine renames).

// ScrubStatusResponse is the GET /v1/scrub/status body (also returned by
// the POST that starts a pass), and the state of the current (or last) pass
// itself: Service.scrub, guarded by Service.mu.
type ScrubStatusResponse struct {
	// State is "idle" (never run), "running", "done", or "failed".
	State string `json:"state"`
	Deep  bool   `json:"deep,omitempty"`
	// Scanned/Total/Current report live progress while running.
	Scanned int    `json:"scanned"`
	Total   int    `json:"total"`
	Current string `json:"current,omitempty"`
	// StartedAt/FinishedAt bracket the pass (FinishedAt zero while running).
	StartedAt  time.Time `json:"started_at,omitempty"`
	FinishedAt time.Time `json:"finished_at,omitempty"`
	Error      string    `json:"error,omitempty"`
	// Report is the completed pass's full result (done/failed only).
	Report *store.ScrubReport `json:"report,omitempty"`
}

func (s *Service) handleScrubStart(req *request) error {
	s.mu.Lock()
	if s.scrub.State == "running" {
		s.mu.Unlock()
		return errf(http.StatusConflict, "scrub_running", "a scrub pass is already running")
	}
	deep := req.q.Get("deep") == "1"
	s.scrub = ScrubStatusResponse{State: "running", Deep: deep, StartedAt: time.Now().UTC()}
	// Answer with the status as started: a short pass can finish before
	// the answer is written.
	started := s.scrub
	s.mu.Unlock()
	go s.runScrub(req.st, deep)
	return writeJSON(req.w, http.StatusAccepted, started)
}

func (s *Service) handleScrubStatus(req *request) error {
	return writeJSON(req.w, http.StatusOK, s.scrubStatus())
}

// runScrub is the background body of one scrub pass.
func (s *Service) runScrub(st *store.Store, deep bool) {
	rep, err := st.Scrub(store.ScrubOptions{
		Deep: deep,
		Progress: func(scanned, total int, name string) {
			s.mu.Lock()
			s.scrub.Scanned, s.scrub.Total, s.scrub.Current = scanned, total, name
			s.mu.Unlock()
		},
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scrub.State = "done"
	s.scrub.FinishedAt = time.Now().UTC()
	s.scrub.Current = ""
	s.scrub.Report = rep
	if err != nil {
		s.scrub.State = "failed"
		s.scrub.Error = err.Error()
	}
}

// scrubStatus copies the current job state.
func (s *Service) scrubStatus() ScrubStatusResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scrub
}
