// The benchmark is a module of its own, nested in the repository: the
// repository's `go build ./...` and `go test ./...` skip it, and it reaches
// the engine's internal packages because its module path sits under `dmml/`.
module dmml/bench

go 1.22

require dmml v0.0.0

replace dmml => ../
