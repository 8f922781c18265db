package client

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"rqm/internal/service"
)

// Dataset archive methods: the client side of the /v1/datasets endpoints.
// A put uploads a .rqmf field for profiled, chunked storage; slice reads
// pull element ranges that the server decompresses from only the covering
// chunks; recompaction asks the server to re-solve the dataset's cached
// ratio-quality model for a new target — a no-op round trip when the model
// says the target is already met.

// Re-exported dataset response types (the service wire format is the
// contract).
type (
	// DatasetInfo summarizes one stored dataset.
	DatasetInfo = service.DatasetInfo
	// RecompactResponse reports one recompaction decision.
	RecompactResponse = service.RecompactResponse
)

// PutDatasetParams scope one dataset put; zero values defer to the server's
// engine configuration.
type PutDatasetParams struct {
	// Codec, Predictor, Mode, Lossless override the server's backend
	// configuration by name; Mode must be "abs" or "rel" for datasets.
	Codec, Predictor, Mode, Lossless string
	// ErrorBound overrides the bound (Mode semantics); 0 = server default.
	ErrorBound float64
	// ChunkValues sets the container chunk size in values (0 = default).
	ChunkValues int
	// SampleRate and Seed configure the cached profile's sampling pass.
	SampleRate float64
	Seed       uint64
	// Exact also stores a lossless residual layer alongside the lossy
	// container, so the dataset can serve bit-exact reads (GetDatasetExact).
	Exact bool
	// ResidualBackend picks the residual entropy coder by name (empty =
	// server default); only meaningful with Exact.
	ResidualBackend string
}

func (p PutDatasetParams) query() url.Values {
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
	if p.ChunkValues > 0 {
		q.Set("chunk", strconv.Itoa(p.ChunkValues))
	}
	if p.SampleRate > 0 {
		q.Set("sample", strconv.FormatFloat(p.SampleRate, 'g', -1, 64))
	}
	if p.Seed > 0 {
		q.Set("seed", strconv.FormatUint(p.Seed, 10))
	}
	if p.Exact {
		q.Set("exact", "1")
		set("residual-backend", p.ResidualBackend)
	}
	return q
}

func datasetPath(name string) string { return "/v1/datasets/" + url.PathEscape(name) }

// PutDataset uploads a .rqmf field for persistent storage under name,
// replacing any previous dataset of that name.
func (c *Client) PutDataset(ctx context.Context, name string, field io.Reader, p PutDatasetParams) (*DatasetInfo, error) {
	return doJSON[DatasetInfo](ctx, c, http.MethodPost, datasetPath(name), p.query(), field, "dataset response")
}

// GetDataset streams the stored dataset back as a decompressed .rqmf field.
func (c *Client) GetDataset(ctx context.Context, name string, out io.Writer) error {
	_, err := c.copyTo(ctx, http.MethodGet, datasetPath(name), nil, nil, out, "dataset stream")
	return err
}

// GetDatasetExact streams the dataset's lossless tier: the original field
// bit for bit, reconstructed server-side from the lossy base plus the
// residual layer and verified against the stored original hash before the
// first byte is sent. Datasets without a residual layer (put without Exact,
// or demoted) answer a typed 409 no_residual.
func (c *Client) GetDatasetExact(ctx context.Context, name string, out io.Writer) error {
	q := url.Values{}
	q.Set("exact", "1")
	_, err := c.copyTo(ctx, http.MethodGet, datasetPath(name), q, nil, out, "exact dataset stream")
	return err
}

// PromoteDataset adds a lossless residual layer to a committed dataset. The
// original field must be supplied — the server proves the bytes reproduce
// the dataset's content hash before building the residual, so a promotion
// can never install a layer that "restores" to the wrong data.
func (c *Client) PromoteDataset(ctx context.Context, name string, original io.Reader) (*DatasetInfo, error) {
	return doJSON[DatasetInfo](ctx, c, http.MethodPost, datasetPath(name)+"/promote", nil, original, "promote response")
}

// DemoteDataset drops a dataset's residual layer, keeping the lossy base.
// Demoting a dataset with no residual is an idempotent no-op.
func (c *Client) DemoteDataset(ctx context.Context, name string) (*DatasetInfo, error) {
	return doJSON[DatasetInfo](ctx, c, http.MethodPost, datasetPath(name)+"/demote", nil, nil, "demote response")
}

// GetDatasetContainer streams the stored dataset's compressed container
// verbatim — with its trailer index, the bytes are random-accessible via
// rqm.ReadStreamIndex/ReadStreamChunk without another round trip.
func (c *Client) GetDatasetContainer(ctx context.Context, name string, out io.Writer) error {
	q := url.Values{}
	q.Set("raw", "1")
	_, err := c.copyTo(ctx, http.MethodGet, datasetPath(name), q, nil, out, "container stream")
	return err
}

// StatDataset fetches one dataset's manifest summary without any payload.
func (c *Client) StatDataset(ctx context.Context, name string) (*DatasetInfo, error) {
	q := url.Values{}
	q.Set("manifest", "1")
	return doJSON[DatasetInfo](ctx, c, http.MethodGet, datasetPath(name), q, nil, "dataset manifest")
}

// ListDatasets fetches the summaries of every stored dataset.
func (c *Client) ListDatasets(ctx context.Context) ([]DatasetInfo, error) {
	lr, err := doJSON[service.ListDatasetsResponse](ctx, c, http.MethodGet, "/v1/datasets", nil, nil, "dataset list")
	if err != nil {
		return nil, err
	}
	return lr.Datasets, nil
}

// DeleteDataset removes a stored dataset.
func (c *Client) DeleteDataset(ctx context.Context, name string) error {
	resp, err := c.do(ctx, http.MethodDelete, datasetPath(name), nil, nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// SliceDataset streams elements [off, off+n) of a stored dataset as a 1-D
// .rqmf field. The server decompresses only the chunks covering the range.
func (c *Client) SliceDataset(ctx context.Context, name string, off, n int64, out io.Writer) error {
	return c.slice(ctx, name, off, n, false, out)
}

// SliceDatasetExact is SliceDataset at the lossless tier: the range comes
// back bit-identical to the original field, reconstructed from only the
// chunks (and residual blocks) covering it.
func (c *Client) SliceDatasetExact(ctx context.Context, name string, off, n int64, out io.Writer) error {
	return c.slice(ctx, name, off, n, true, out)
}

func (c *Client) slice(ctx context.Context, name string, off, n int64, exact bool, out io.Writer) error {
	q := url.Values{}
	q.Set("off", strconv.FormatInt(off, 10))
	q.Set("len", strconv.FormatInt(n, 10))
	if exact {
		q.Set("exact", "1")
	}
	_, err := c.copyTo(ctx, http.MethodGet, datasetPath(name)+"/slice", q, nil, out, "slice stream")
	return err
}

// RecompactOption adjusts one recompaction request beyond its solve target.
type RecompactOption func(url.Values)

// WithAdaptiveSpace asks the recompaction rewrite to use variance-guided
// spatial partitioning: the server replans chunk geometry from the data and
// solves the model per region, and records the partitioner in the manifest so
// later recompactions reproduce it.
func WithAdaptiveSpace() RecompactOption {
	return func(q url.Values) { q.Set("adaptive-space", "1") }
}

// RecompactDataset asks the server to recompact a dataset toward a target
// ("ratio" or "psnr" Kind). The server answers from the dataset's cached
// ratio-quality profile and skips the rewrite when the target is already
// met — inspect Skipped/Reason on the response.
func (c *Client) RecompactDataset(ctx context.Context, name string, target SolveTarget, opts ...RecompactOption) (*RecompactResponse, error) {
	q := url.Values{}
	q.Set("target-"+target.Kind, strconv.FormatFloat(target.Value, 'g', -1, 64))
	for _, opt := range opts {
		opt(q)
	}
	return doJSON[RecompactResponse](ctx, c, http.MethodPost, datasetPath(name)+"/recompact", q, nil, "recompact response")
}
