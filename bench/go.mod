module github.com/wustl-adapt/hepccl/bench

go 1.22

require github.com/wustl-adapt/hepccl v0.0.0

replace github.com/wustl-adapt/hepccl => ../
