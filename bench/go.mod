// The benchmark is a module of its own: the root module's `go build ./...`
// and `go test ./...` do not see it. The module path keeps the cardirect/
// prefix so the harness may import cardirect/internal/... for the oracle
// and the traced in-process runs.
module cardirect/bench

go 1.22

require cardirect v0.0.0

replace cardirect => ../
