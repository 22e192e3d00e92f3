package main

// pinTable holds the deterministic outcomes of the default seed, keyed
// by workload/size. A change to the simulated model or the scheduler
// that moves them fails the benchmark's output check; README.md says
// how to re-pin after an intended change.
type pinTable struct {
	sim   map[string]simPins
	tasks map[string]schedCounters
}

var defaultPins = pinTable{
	sim: map[string]simPins{
		"sim-paper/full": {Ops: 5510448, Cells: []cellOutcome{
			{"lbm/buddy", 3000412, 157696}, {"lbm/BPM", 10332304, 157696}, {"lbm/MEM+LLC", 2035010, 157696},
			{"art/buddy", 1140250, 73440}, {"art/BPM", 5463771, 73440}, {"art/MEM+LLC", 815315, 73440},
			{"equake/buddy", 1805160, 1050624}, {"equake/BPM", 11624246, 1050624}, {"equake/MEM+LLC", 3043344, 1050624},
			{"bodytrack/buddy", 1365618, 140928}, {"bodytrack/BPM", 8428824, 140928}, {"bodytrack/MEM+LLC", 1064898, 140928},
			{"freqmine/buddy", 875014, 383984}, {"freqmine/BPM", 4546855, 383984}, {"freqmine/MEM+LLC", 1361167, 383984},
			{"blackscholes/buddy", 1574609, 30144}, {"blackscholes/BPM", 2541768, 30144}, {"blackscholes/MEM+LLC", 1775754, 30144},
		}},
		"sim-paper/toy": {Ops: 559296, Cells: []cellOutcome{
			{"lbm/buddy", 263387, 16384}, {"lbm/BPM", 361935, 16384}, {"lbm/MEM+LLC", 188708, 16384},
			{"art/buddy", 124499, 8208}, {"art/BPM", 157596, 8208}, {"art/MEM+LLC", 87218, 8208},
			{"equake/buddy", 139547, 105472}, {"equake/BPM", 199736, 105472}, {"equake/MEM+LLC", 148417, 105472},
			{"bodytrack/buddy", 132508, 14912}, {"bodytrack/BPM", 167005, 14912}, {"bodytrack/MEM+LLC", 96372, 14912},
			{"freqmine/buddy", 69795, 38384}, {"freqmine/BPM", 92253, 38384}, {"freqmine/MEM+LLC", 65234, 38384},
			{"blackscholes/buddy", 153027, 3072}, {"blackscholes/BPM", 210309, 3072}, {"blackscholes/MEM+LLC", 165734, 3072},
		}},
		"sim-pressure/full": {Ops: 66048, Cells: []cellOutcome{
			{"garbage/buddy", 8970022, 33024}, {"garbage/MEM+LLC", 8986653, 33024},
		}},
		"sim-pressure/toy": {Ops: 5248, Cells: []cellOutcome{
			{"garbage/buddy", 979692, 2624}, {"garbage/MEM+LLC", 1020528, 2624},
		}},
	},
	tasks: map[string]schedCounters{
		"net-tasks/full": {Ticks: 1172, Dispatches: 4468, Preemptions: 3512, Blocks: 924, Ops: 80782, IdleCores: 218},
		"net-tasks/toy":  {Ticks: 62, Dispatches: 239, Preemptions: 171, Blocks: 36, Ops: 4072, IdleCores: 7},
	},
}
