package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
)

// pins.json records the membound-spiked cycles of each benchmark per seed,
// and the front of the tune workload's fixed-seed search. A membound-spiked
// seed without a record is checked for agreement between the passes of its
// run instead.
//
//go:embed pins.json
var pinsJSON []byte

type pinFile struct {
	Spiked map[string]map[string]int64 `json:"membound_spiked"`
	Tune   []pinPoint                  `json:"tune"`
}

func loadPins() (*pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return &p, nil
}

// spikedPins returns a private copy of the seed's membound-spiked cycles
// (empty when the seed is not recorded).
func spikedPins(seed int64) (map[string]int64, error) {
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for k, v := range p.Spiked[strconv.FormatInt(seed, 10)] {
		out[k] = v
	}
	return out, nil
}

// tunePin returns the recorded tune front.
func tunePin() ([]pinPoint, error) {
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	if len(p.Tune) == 0 {
		return nil, errors.New("pins.json records no tune front (rewrite it with go test -run TestRecordPins -record)")
	}
	return p.Tune, nil
}
