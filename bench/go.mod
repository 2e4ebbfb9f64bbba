module csrank/bench

go 1.22

require csrank v0.0.0

replace csrank => ../
