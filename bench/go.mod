module hetsyslog/bench

go 1.22

require hetsyslog v0.0.0

replace hetsyslog => ../
