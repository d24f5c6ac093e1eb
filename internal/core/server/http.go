package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/osn"
)

// HTTPHandler exposes the server's web surface, standing in for the
// original PHP scripts:
//
//	POST /osn/action      — OSN plug-in webhook (FacebookReceiver.php)
//	POST /register        — user/device registration
//	GET  /streams?device= — stream configuration download (FilterDownloader)
//	GET  /metrics         — full metric registry, Prometheus text format
//	GET  /trace           — canonical span-ring dump (503 when disabled)
//	GET  /healthz         — liveness
func (m *Manager) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /osn/action", m.handleOSNAction)
	mux.HandleFunc("POST /register", m.handleRegister)
	mux.HandleFunc("GET /streams", m.handleStreamsDownload)
	mux.Handle("GET /metrics", obs.MetricsHandler(m.metrics))
	mux.Handle("GET /trace", obs.TraceHandler(m.tracer))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok")
	})
	return mux
}

func (m *Manager) handleOSNAction(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, "read body", http.StatusBadRequest)
		return
	}
	var a osn.Action
	if err := json.Unmarshal(body, &a); err != nil {
		http.Error(w, fmt.Sprintf("bad action: %v", err), http.StatusBadRequest)
		return
	}
	if a.UserID == "" || !osn.ValidActionType(a.Type) {
		http.Error(w, "bad action: missing user or invalid type", http.StatusBadRequest)
		return
	}
	m.OnOSNAction(a)
	w.WriteHeader(http.StatusAccepted)
}

type registerRequest struct {
	UserID   string `json:"user_id"`
	DeviceID string `json:"device_id"`
}

func (m *Manager) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		http.Error(w, "read body", http.StatusBadRequest)
		return
	}
	var req registerRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	if req.DeviceID != "" {
		err = m.RegisterDevice(req.UserID, req.DeviceID)
	} else {
		err = m.RegisterUser(req.UserID)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func (m *Manager) handleStreamsDownload(w http.ResponseWriter, r *http.Request) {
	deviceID := r.URL.Query().Get("device")
	if deviceID == "" {
		http.Error(w, "device query parameter required", http.StatusBadRequest)
		return
	}
	configs, err := m.StreamConfigsForDevice(deviceID)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	xml, err := config.EncodeStreams(configs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	_, _ = w.Write(xml)
}
