module dtt/bench

go 1.22

require dtt v0.0.0

replace dtt => ../
