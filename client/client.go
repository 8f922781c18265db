// Package client is the Go client for the rqserved HTTP API (internal/
// service): compression and decompression as streamed request/response
// bodies, plus the profile-cache endpoints that answer ratio/quality
// questions from one cheap sampling pass. The CLI's -remote mode is a thin
// wrapper around this package.
//
//	c, _ := client.New("http://localhost:8080")
//	info, _ := c.Profile(ctx, fieldFile, client.ProfileParams{})
//	est, _ := c.Estimate(ctx, info.Profile, 1e-3, "rel") // O(1): no upload
//
// Failed requests return *APIError carrying the service's stable error code
// ("bad_magic", "profile_not_found", "too_many_requests", ...).
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rqm/internal/service"
)

// Re-exported response types: the service wire format is the contract.
type (
	// ProfileResponse is the /v1/profile answer (profile ID + RQ curve).
	ProfileResponse = service.ProfileResponse
	// EstimateResponse is the /v1/estimate answer.
	EstimateResponse = service.EstimateResponse
	// SolveResponse is the /v1/solve answer.
	SolveResponse = service.SolveResponse
	// HealthResponse is the /healthz answer.
	HealthResponse = service.HealthResponse
	// MetricsSnapshot is the /metrics answer.
	MetricsSnapshot = service.MetricsSnapshot
	// CurvePoint is one point of a profile's ratio-quality curve.
	CurvePoint = service.CurvePoint
)

// APIError is a non-2xx response decoded from the service's JSON envelope.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the service's stable machine-matchable error code.
	Code string
	// Message is the human-oriented detail.
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("rqserved: %s (%d %s)", e.Message, e.Status, e.Code)
}

// DefaultRetryAttempts and DefaultRetryBase configure the built-in 429
// retry policy for idempotent (GET) requests: up to 3 total attempts with
// jittered exponential backoff starting around DefaultRetryBase.
const (
	DefaultRetryAttempts = 3
	DefaultRetryBase     = 100 * time.Millisecond
)

// Client talks to one rqserved endpoint. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client

	retryAttempts int
	retryBase     time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts, proxies,
// test transports).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetry tunes the retry policy for idempotent (GET) requests: attempts
// is the total try count (1 disables retries), base the first backoff
// delay. Two failure classes are retried: the service's typed admission
// rejection (HTTP 429, code "too_many_requests") and transient transport
// errors (connection refused/reset, unexpected EOF). Never for POST or
// DELETE, whose effects must not be replayed blindly.
func WithRetry(attempts int, base time.Duration) Option {
	return func(c *Client) {
		if attempts < 1 {
			attempts = 1
		}
		if base <= 0 {
			base = DefaultRetryBase
		}
		c.retryAttempts = attempts
		c.retryBase = base
	}
}

// New builds a client for the service at baseURL (e.g. "http://host:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: %q is not an absolute base URL", baseURL)
	}
	c := &Client{
		base:          strings.TrimRight(u.String(), "/"),
		hc:            http.DefaultClient,
		retryAttempts: DefaultRetryAttempts,
		retryBase:     DefaultRetryBase,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// CompressParams scope one compress request; zero values defer to the
// server's engine configuration.
type CompressParams struct {
	// Codec, Predictor, Mode, Lossless override the server's backend
	// configuration by name ("prediction", "lorenzo", "abs", "flate", ...).
	Codec, Predictor, Mode, Lossless string
	// ErrorBound overrides the bound (Mode semantics); 0 = server default.
	ErrorBound float64
	// Stream forces the chunked streaming pipeline regardless of body size.
	Stream bool
	// ChunkValues sets the streaming chunk size in values (0 = default).
	ChunkValues int
	// TargetRatio / TargetPSNR switch to model-driven adaptive per-chunk
	// bounds (streaming implied).
	TargetRatio, TargetPSNR float64
	// SampleRate overrides the model sampling rate behind adaptive bounds
	// (0 = server default).
	SampleRate float64
	// AdaptiveSpace switches chunk planning to variance-guided spatial
	// partitioning with per-region solved bounds (needs TargetRatio or
	// TargetPSNR).
	AdaptiveSpace bool
	// HasValueRange declares the field's global value range [ValueLo,
	// ValueHi] — required when streaming under a REL bound.
	HasValueRange    bool
	ValueLo, ValueHi float64
}

func (p CompressParams) query() url.Values {
	q := url.Values{}
	set := func(k, v string) {
		if v != "" {
			q.Set(k, v)
		}
	}
	set("codec", p.Codec)
	set("predictor", p.Predictor)
	set("mode", p.Mode)
	set("lossless", p.Lossless)
	if p.ErrorBound > 0 {
		q.Set("eb", strconv.FormatFloat(p.ErrorBound, 'g', -1, 64))
	}
	if p.Stream {
		q.Set("stream", "1")
	}
	if p.ChunkValues > 0 {
		q.Set("chunk", strconv.Itoa(p.ChunkValues))
	}
	if p.TargetRatio > 0 {
		q.Set("target-ratio", strconv.FormatFloat(p.TargetRatio, 'g', -1, 64))
	}
	if p.TargetPSNR > 0 {
		q.Set("target-psnr", strconv.FormatFloat(p.TargetPSNR, 'g', -1, 64))
	}
	if p.SampleRate > 0 {
		q.Set("sample", strconv.FormatFloat(p.SampleRate, 'g', -1, 64))
	}
	if p.AdaptiveSpace {
		q.Set("adaptive-space", "1")
	}
	if p.HasValueRange {
		q.Set("value-range", strconv.FormatFloat(p.ValueLo, 'g', -1, 64)+","+
			strconv.FormatFloat(p.ValueHi, 'g', -1, 64))
	}
	return q
}

// CompressInfo reports the statistics headers of a compress response.
type CompressInfo struct {
	// Codec names the backend that served the request ("" when streamed).
	Codec string
	// Ratio and BitRate are the sealed-container statistics ("" -> 0 when
	// streamed: the stats are not known before the response body ends).
	Ratio, BitRate float64
	// Streamed reports whether the chunked pipeline served the request.
	Streamed bool
}

// Compress sends a .rqmf field and streams the compressed container to out.
func (c *Client) Compress(ctx context.Context, field io.Reader, out io.Writer, p CompressParams) (*CompressInfo, error) {
	h, err := c.copyTo(ctx, http.MethodPost, "/v1/compress", p.query(), field, out, "compressed stream")
	if err != nil {
		return nil, err
	}
	info := &CompressInfo{Codec: h.Get("X-RQM-Codec"), Streamed: h.Get("X-RQM-Streamed") == "1"}
	info.Ratio, _ = strconv.ParseFloat(h.Get("X-RQM-Ratio"), 64)
	info.BitRate, _ = strconv.ParseFloat(h.Get("X-RQM-Bit-Rate"), 64)
	return info, nil
}

// Decompress sends a container and streams the .rqmf field to out.
func (c *Client) Decompress(ctx context.Context, container io.Reader, out io.Writer) error {
	_, err := c.copyTo(ctx, http.MethodPost, "/v1/decompress", nil, container, out, "decompressed stream")
	return err
}

// ProfileParams scope one profile request.
type ProfileParams struct {
	// Codec and Predictor select the profiled configuration.
	Codec, Predictor string
	// SampleRate overrides the model sampling rate (0 = server default).
	SampleRate float64
	// Seed fixes the sampling seed (0 = server default).
	Seed uint64
}

// Profile uploads a .rqmf field for one sampling pass (or a cache hit) and
// returns the profile ID plus the modeled ratio-quality curve.
func (c *Client) Profile(ctx context.Context, field io.Reader, p ProfileParams) (*ProfileResponse, error) {
	q := url.Values{}
	if p.Codec != "" {
		q.Set("codec", p.Codec)
	}
	if p.Predictor != "" {
		q.Set("predictor", p.Predictor)
	}
	if p.SampleRate > 0 {
		q.Set("sample", strconv.FormatFloat(p.SampleRate, 'g', -1, 64))
	}
	if p.Seed > 0 {
		q.Set("seed", strconv.FormatUint(p.Seed, 10))
	}
	return doJSON[ProfileResponse](ctx, c, http.MethodPost, "/v1/profile", q, field, "profile response")
}

// Estimate answers "what ratio/PSNR would error bound eb give" from the
// cached profile — no field upload, no compression run. mode is "rel"
// (default) or "abs".
func (c *Client) Estimate(ctx context.Context, profileID string, eb float64, mode string) (*EstimateResponse, error) {
	q := url.Values{}
	q.Set("profile", profileID)
	q.Set("eb", strconv.FormatFloat(eb, 'g', -1, 64))
	if mode != "" {
		q.Set("mode", mode)
	}
	return doJSON[EstimateResponse](ctx, c, http.MethodGet, "/v1/estimate", q, nil, "estimate response")
}

// SolveTarget names one inverse problem for Solve.
type SolveTarget struct {
	// Kind is "ratio", "psnr", or "bitrate".
	Kind string
	// Value is the target in Kind units.
	Value float64
}

// Solve inverts the model on the cached profile: the error bound meeting
// the target, plus the modeled outcome at that bound.
func (c *Client) Solve(ctx context.Context, profileID string, target SolveTarget) (*SolveResponse, error) {
	q := url.Values{}
	q.Set("profile", profileID)
	q.Set("target-"+target.Kind, strconv.FormatFloat(target.Value, 'g', -1, 64))
	return doJSON[SolveResponse](ctx, c, http.MethodGet, "/v1/solve", q, nil, "solve response")
}

// Health checks liveness.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	return doJSON[HealthResponse](ctx, c, http.MethodGet, "/healthz", nil, nil, "health response")
}

// Metrics fetches the service counters.
func (c *Client) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	return doJSON[MetricsSnapshot](ctx, c, http.MethodGet, "/metrics", nil, nil, "metrics response")
}

// doJSON is the one path a JSON answer is read through: it issues the
// request, decodes the 2xx body as a T, and names the answer (what) in a
// decoding error.
func doJSON[T any](ctx context.Context, c *Client, method, path string, q url.Values, body io.Reader, what string) (*T, error) {
	resp, err := c.do(ctx, method, path, q, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	v := new(T)
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return nil, fmt.Errorf("client: decoding %s: %w", what, err)
	}
	return v, nil
}

// copyTo is the one path a streamed answer is read through: it issues the
// request, copies the 2xx body to out, and returns the response headers;
// what names the stream in a read error.
func (c *Client) copyTo(ctx context.Context, method, path string, q url.Values, body io.Reader, out io.Writer, what string) (http.Header, error) {
	resp, err := c.do(ctx, method, path, q, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(out, resp.Body); err != nil {
		return nil, fmt.Errorf("client: reading %s: %w", what, err)
	}
	return resp.Header, nil
}

// do issues one request and returns its 2xx response, mapping any other
// status to *APIError.
func (c *Client) do(ctx context.Context, method, path string, q url.Values, body io.Reader) (*http.Response, error) {
	// Idempotent requests (GETs carry no body and cause no server-side
	// effect) retry two transient failure classes with jittered exponential
	// backoff: the service's typed admission rejection (a 429 means
	// "momentarily full", not "broken"), and transport-level connection
	// failures (refused/reset — the shard behind a router may be mid-restart
	// while its replicas are fine). Everything else, and every non-GET,
	// surfaces immediately.
	attempts := 1
	if method == http.MethodGet {
		attempts = c.retryAttempts
	}
	var lastErr error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			if err := c.backoff(ctx, try); err != nil {
				return nil, err
			}
		}
		resp, err := c.doOnce(ctx, method, path, q, body)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		var ae *APIError
		switch {
		case errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests:
		case isTransientTransportErr(err) && ctx.Err() == nil:
		default:
			return nil, err
		}
	}
	return nil, lastErr
}

// isTransientTransportErr reports whether err is a connection-level failure
// worth retrying on an idempotent request: the dial was refused, or the
// peer dropped the connection before/while answering. Context cancellation
// and deadline expiry are deliberate, never retried.
func isTransientTransportErr(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return true
	}
	// A peer that closes mid-response surfaces as a bare (unexpected) EOF
	// out of net/http rather than a syscall errno.
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// maxRetryBackoff caps one backoff sleep: past it, exponential growth buys
// nothing (and unchecked doubling would eventually overflow time.Duration).
const maxRetryBackoff = 30 * time.Second

// backoff sleeps the jittered exponential delay for retry number try,
// honoring context cancellation.
func (c *Client) backoff(ctx context.Context, try int) error {
	d := c.retryBase
	for i := 1; i < try && d < maxRetryBackoff; i++ {
		d *= 2
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	d = d/2 + time.Duration(rand.Int64N(int64(d))) // 0.5x..1.5x jitter
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (c *Client) doOnce(ctx context.Context, method, path string, q url.Values, body io.Reader) (*http.Response, error) {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	defer resp.Body.Close()
	apiErr := &APIError{Status: resp.StatusCode, Code: "unknown", Message: resp.Status}
	var envelope service.ErrorBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&envelope); err == nil &&
		envelope.Error.Code != "" {
		apiErr.Code = envelope.Error.Code
		apiErr.Message = envelope.Error.Message
	}
	return nil, apiErr
}
