module eslurm/bench

go 1.22

require eslurm v0.0.0

replace eslurm => ../
