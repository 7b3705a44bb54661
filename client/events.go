package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// FollowRun streams a run's lifecycle over server-sent events, invoking fn
// for each state transition. The stream ends — and FollowRun returns nil —
// after the terminal event, when fn returns false, or when the server
// closes the stream; the context cancels it early. Callers wanting the
// final state should read it from the last event fn saw (or fall back to
// WaitRun when the stream ends early, e.g. because the daemon shut down).
// A coordinator's stream outlives the serving node's death: it shows the
// run queued again and goes on to the requeued run's terminal event.
func (c *Client) FollowRun(ctx context.Context, id string, fn func(Event) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/runs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return fmt.Errorf("pdpad: building request: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("pdpad: GET events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		return decodeAPIError(resp, data)
	}
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev) != nil {
			continue
		}
		if !fn(ev) || Terminal(ev.State) {
			return nil
		}
	}
	if err := scanner.Err(); err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return scanner.Err()
}
