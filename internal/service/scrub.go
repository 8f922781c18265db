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

// scrubJob is the mutable state of the current (or last) scrub pass,
// guarded by Service.scrubMu.
type scrubJob struct {
	deep       bool
	startedAt  time.Time
	scanned    int
	total      int
	current    string
	done       bool
	finishedAt time.Time
	report     *store.ScrubReport
	err        error
}

// ScrubStatusResponse is the GET /v1/scrub/status body (also returned by
// the POST that starts a pass).
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
	s.scrubMu.Lock()
	if s.scrubJob != nil && !s.scrubJob.done {
		s.scrubMu.Unlock()
		return errf(http.StatusConflict, "scrub_running", "a scrub pass is already running")
	}
	job := &scrubJob{deep: req.q.Get("deep") == "1", startedAt: time.Now().UTC()}
	s.scrubJob = job
	s.scrubMu.Unlock()
	go s.runScrub(req.st, job)
	return writeJSON(req.w, http.StatusAccepted, s.scrubStatus())
}

func (s *Service) handleScrubStatus(req *request) error {
	return writeJSON(req.w, http.StatusOK, s.scrubStatus())
}

// runScrub is the background body of one scrub pass.
func (s *Service) runScrub(st *store.Store, job *scrubJob) {
	rep, err := st.Scrub(store.ScrubOptions{
		Deep: job.deep,
		Progress: func(scanned, total int, name string) {
			s.scrubMu.Lock()
			job.scanned, job.total, job.current = scanned, total, name
			s.scrubMu.Unlock()
		},
	})
	s.scrubMu.Lock()
	job.done = true
	job.finishedAt = time.Now().UTC()
	job.current = ""
	job.report = rep
	job.err = err
	s.scrubMu.Unlock()
}

// scrubStatus snapshots the current job state.
func (s *Service) scrubStatus() ScrubStatusResponse {
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	job := s.scrubJob
	if job == nil {
		return ScrubStatusResponse{State: "idle"}
	}
	resp := ScrubStatusResponse{
		State:     "running",
		Deep:      job.deep,
		Scanned:   job.scanned,
		Total:     job.total,
		Current:   job.current,
		StartedAt: job.startedAt,
	}
	if job.done {
		resp.State = "done"
		resp.FinishedAt = job.finishedAt
		resp.Report = job.report
		if job.err != nil {
			resp.State = "failed"
			resp.Error = job.err.Error()
		}
	}
	return resp
}
