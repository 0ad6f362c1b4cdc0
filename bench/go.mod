module flymon/bench

go 1.22

require flymon v0.0.0

replace flymon => ../
