package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"rqm"
	"rqm/internal/store"
)

// ErrorBody is the JSON error envelope every failed request returns; Code is
// stable and machine-matchable, Message is human-oriented detail.
type ErrorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// apiError carries an HTTP status and a stable error code alongside the
// message. Handlers return plain errors; writeError maps them here.
type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string { return e.msg }

// errf builds an apiError in place.
func errf(status int, code, format string, args ...interface{}) error {
	return &apiError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// containerErrorCodes maps the codec package's typed container errors to
// stable API codes. Every Decompress/Inspect parse failure wraps exactly one
// of these — a native payload its codec cannot decode included, as
// ErrCorrupt — so the mapping is total for container input.
var containerErrorCodes = []struct {
	is   error
	code string
}{
	{rqm.ErrBadMagic, "bad_magic"},
	{rqm.ErrTruncated, "truncated"},
	{rqm.ErrUnsupportedVersion, "unsupported_version"},
	{rqm.ErrUnknownCodec, "unknown_codec"},
	{rqm.ErrChecksum, "checksum_mismatch"},
	{rqm.ErrCorrupt, "corrupt"},
}

// mapError resolves any handler error to (status, code, message). Typed
// container errors become 422 Unprocessable Entity — the request was
// syntactically fine but the payload is not a decodable container/field;
// everything unrecognized is a 500.
func mapError(err error) (int, string, string) {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status, ae.code, ae.msg
	}
	// Stored-data corruption gets its own code, checked before the generic
	// container mapping (a corrupt read wraps both sentinels): unlike a 422
	// on client-supplied bytes, this one means THIS COPY of the dataset is
	// rotten — a replicated reader should fail over and repair it; and
	// unlike a 503, retrying the same shard will not help.
	if errors.Is(err, store.ErrCorruptDataset) {
		return http.StatusUnprocessableEntity, "corrupt_dataset", err.Error()
	}
	for _, m := range containerErrorCodes {
		if errors.Is(err, m.is) {
			return http.StatusUnprocessableEntity, m.code, err.Error()
		}
	}
	if errors.Is(err, rqm.ErrStreamNeedsValueRange) {
		return http.StatusBadRequest, "rel_needs_value_range", err.Error()
	}
	// Store layer: typed dataset/manifest errors keep their shape over HTTP.
	switch {
	case errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound, "dataset_not_found", err.Error()
	case errors.Is(err, store.ErrBadName):
		return http.StatusBadRequest, "bad_name", err.Error()
	case errors.Is(err, store.ErrBadRange):
		return http.StatusBadRequest, "bad_range", err.Error()
	case errors.Is(err, store.ErrConflict):
		return http.StatusConflict, "conflict", err.Error()
	case errors.Is(err, store.ErrNoResidual):
		// An exact read (or bodyless promote) against a lossy-only dataset:
		// the request is well-formed, the dataset simply has no lossless tier
		// — a 409 the client resolves by promoting with the original.
		return http.StatusConflict, "no_residual", err.Error()
	case errors.Is(err, store.ErrManifestCorrupt), errors.Is(err, store.ErrManifestVersion):
		return http.StatusInternalServerError, "manifest_corrupt", err.Error()
	}
	return http.StatusInternalServerError, "internal", err.Error()
}

// writeError emits the JSON error envelope for err.
func writeError(w http.ResponseWriter, err error) {
	status, code, msg := mapError(err)
	var body ErrorBody
	body.Error.Code = code
	body.Error.Message = msg
	w.Header().Del("Content-Length") // what a handler declared of the body it did not send
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(&body)
}
