package main

import (
	"strings"
	"testing"
	"time"

	"haralick4d/internal/cliflags"
)

func TestValidateCountFlags(t *testing.T) {
	cases := []struct {
		readAhead, kernelWorkers int
		wantErr                  string
	}{
		{0, 0, ""},
		{4, 8, ""},
		{-1, 0, "-readahead must be >= 0, got -1"},
		{0, -3, "-kernel-workers must be >= 0, got -3"},
		{-2, -2, "-readahead must be >= 0, got -2"}, // first offender wins
	}
	for _, c := range cases {
		err := validateCountFlags(c.readAhead, c.kernelWorkers)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("validateCountFlags(%d, %d) = %v, want nil", c.readAhead, c.kernelWorkers, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("validateCountFlags(%d, %d) = %v, want %q", c.readAhead, c.kernelWorkers, err, c.wantErr)
		}
	}
}

// TestRestartFlagShape exercises the invocation main forwards to the shared
// parser for the full -checkpoint/-checkpoint-interval/-resume/-stall-timeout
// surface; each error case is one the binary turns into an exit-2 usage
// failure.
func TestRestartFlagShape(t *testing.T) {
	cases := []struct {
		name              string
		checkpoint        string
		resume            bool
		intervalS, stallS string
		wantInterval      time.Duration
		wantStall         time.Duration
		wantErr           string
	}{
		{name: "off"},
		{name: "full", checkpoint: "run.ckpt", resume: true, intervalS: "500ms", stallS: "2m",
			wantInterval: 500 * time.Millisecond, wantStall: 2 * time.Minute},
		{name: "resume-without-checkpoint", resume: true, wantErr: "-resume requires -checkpoint"},
		{name: "orphan-interval", intervalS: "1s", wantErr: "-checkpoint-interval without -checkpoint"},
		{name: "zero-interval", checkpoint: "run.ckpt", intervalS: "0s", wantErr: "-checkpoint-interval must be positive"},
		{name: "bad-stall", stallS: "later", wantErr: "invalid -stall-timeout"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			interval, stall, err := cliflags.ParseRestartFlags(c.checkpoint, c.resume, c.intervalS, c.stallS)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want %q", err, c.wantErr)
				}
				return
			}
			if err != nil || interval != c.wantInterval || stall != c.wantStall {
				t.Fatalf("got (%s, %s, %v), want (%s, %s)", interval, stall, err, c.wantInterval, c.wantStall)
			}
		})
	}
}
