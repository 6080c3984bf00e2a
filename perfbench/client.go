package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// requestTimeout bounds one request; a request that exceeds it counts as
// a failure.
var requestTimeout = 30 * time.Second

// newClient returns a client holding one keep-alive connection, so a
// closed-loop client reuses its connection like a real caller would.
func newClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// reply is one answered (or failed) request.
type reply struct {
	Status  int
	Body    []byte
	JobID   string
	Sent    time.Time
	Latency time.Duration
	Err     error
}

// post sends body to url and reads the whole response.
func post(c *http.Client, url string, body []byte) reply {
	r := reply{Sent: time.Now()}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		r.Err, r.Latency = err, time.Since(r.Sent)
		return r
	}
	r.Body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.Latency = time.Since(r.Sent)
	r.Status, r.JobID, r.Err = resp.StatusCode, resp.Header.Get("X-Job-Id"), err
	if r.Err == nil && r.Status != http.StatusOK {
		r.Err = fmt.Errorf("status %d: %s", r.Status, bytes.TrimSpace(r.Body))
	}
	return r
}

// getJSON fetches url and decodes the body into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// decodeStrict decodes body into v, refusing unknown fields and
// trailing data.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the JSON body")
	}
	return nil
}

// tally records one operation's outcome and returns the latency sample
// it contributes, in milliseconds: a failed operation counts against the
// run and contributes failedLatency.
func tally(rep *report, fail string, latency time.Duration) float64 {
	if fail != "" {
		rep.fail(fail)
		return failedLatency
	}
	return ms(latency)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
