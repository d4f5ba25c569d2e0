package httpmon

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// WriteJSON replies with status and v encoded as one line of compact
// JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// ErrorBody is the shape of every JSON error reply.
type ErrorBody struct {
	Error string `json:"error"`
}

// WriteError replies with status and an ErrorBody holding the formatted
// message.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorBody{Error: fmt.Sprintf(format, args...)})
}
