module dope/benchmark

go 1.22

require dope v0.0.0

replace dope => ../
