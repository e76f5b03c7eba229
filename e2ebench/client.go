package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/eventual-agreement/eba/internal/service"
)

// newHTTP returns the load generator's client: plain HTTP/1.1 keep-alive
// with no retries, so a shed (429/503) is counted, not hidden. The
// workloads run at most two requests at a time, each client holding at
// most one connection per daemon.
func newHTTP() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               nil,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
		Timeout: 150 * time.Second,
	}
}

// shedStatus reports whether an HTTP status is an admission shed.
func shedStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// post sends body and returns the status, the body, and the latency
// from just before the request is written to the last body byte read.
func post(hc *http.Client, url string, body []byte) (int, []byte, time.Duration, error) {
	start := time.Now()
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return resp.StatusCode, nil, lat, fmt.Errorf("read response: %w", err)
	}
	return resp.StatusCode, data, lat, nil
}

// query sends one POST /v1/query.
func query(hc *http.Client, base string, req service.Request) (*service.Response, int, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, 0, err
	}
	code, data, lat, err := post(hc, base+"/v1/query", body)
	if err != nil {
		return nil, code, lat, err
	}
	if code != http.StatusOK {
		return nil, code, lat, fmt.Errorf("POST /v1/query %q: status %d: %s", req.Formula, code, bytes.TrimSpace(data))
	}
	var resp service.Response
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, code, lat, fmt.Errorf("decode response: %w", err)
	}
	return &resp, code, lat, nil
}

// queryBatch sends one POST /v1/query/batch.
func queryBatch(hc *http.Client, base string, reqs []service.Request) (*service.BatchResponse, int, time.Duration, error) {
	body, err := json.Marshal(service.BatchRequest{Queries: reqs})
	if err != nil {
		return nil, 0, 0, err
	}
	code, data, lat, err := post(hc, base+"/v1/query/batch", body)
	if err != nil {
		return nil, code, lat, err
	}
	if code != http.StatusOK {
		return nil, code, lat, fmt.Errorf("POST /v1/query/batch: status %d: %s", code, bytes.TrimSpace(data))
	}
	var resp service.BatchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, code, lat, fmt.Errorf("decode batch response: %w", err)
	}
	return &resp, code, lat, nil
}
