package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"imtao/internal/geo"
	"imtao/internal/model"
)

// instanceJSON is the serialised form of an instance. Center membership
// lists are not stored: partitioning is recomputed on load when needed,
// keeping files small and eliminating inconsistency.
type instanceJSON struct {
	Speed   float64      `json:"speed"`
	Bounds  [4]float64   `json:"bounds"` // minX, minY, maxX, maxY
	Centers [][2]float64 `json:"centers"`
	Tasks   []taskJSON   `json:"tasks"`
	Workers []workerJSON `json:"workers"`
}

type taskJSON struct {
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Expiry float64 `json:"expiry"`
	Reward float64 `json:"reward"`
}

type workerJSON struct {
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	MaxT int     `json:"maxT"`
}

// WriteJSON serialises an instance (ignoring any existing partition).
func WriteJSON(w io.Writer, in *model.Instance) error {
	out := instanceJSON{
		Speed:  in.Speed,
		Bounds: [4]float64{in.Bounds.Min.X, in.Bounds.Min.Y, in.Bounds.Max.X, in.Bounds.Max.Y},
	}
	for _, c := range in.Centers {
		out.Centers = append(out.Centers, [2]float64{c.Loc.X, c.Loc.Y})
	}
	for _, t := range in.Tasks {
		out.Tasks = append(out.Tasks, taskJSON{X: t.Loc.X, Y: t.Loc.Y, Expiry: t.Expiry, Reward: t.Reward})
	}
	for _, wk := range in.Workers {
		out.Workers = append(out.Workers, workerJSON{X: wk.Loc.X, Y: wk.Loc.Y, MaxT: wk.MaxT})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON deserialises an instance written by WriteJSON. The result is
// unpartitioned.
func ReadJSON(r io.Reader) (*model.Instance, error) {
	var raw instanceJSON
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, fmt.Errorf("workload: decoding instance: %w", err)
	}
	in := &model.Instance{
		Speed:  raw.Speed,
		Bounds: geo.NewRect(geo.Pt(raw.Bounds[0], raw.Bounds[1]), geo.Pt(raw.Bounds[2], raw.Bounds[3])),
	}
	for i, c := range raw.Centers {
		in.Centers = append(in.Centers, model.Center{ID: model.CenterID(i), Loc: geo.Pt(c[0], c[1])})
	}
	for i, t := range raw.Tasks {
		in.Tasks = append(in.Tasks, model.Task{
			ID: model.TaskID(i), Center: model.NoCenter,
			Loc: geo.Pt(t.X, t.Y), Expiry: t.Expiry, Reward: t.Reward,
		})
	}
	for i, wk := range raw.Workers {
		in.Workers = append(in.Workers, model.Worker{
			ID: model.WorkerID(i), Home: model.NoCenter,
			Loc: geo.Pt(wk.X, wk.Y), MaxT: wk.MaxT,
		})
	}
	return in, nil
}
